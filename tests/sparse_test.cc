#include "tensor/sparse.h"

#include <gtest/gtest.h>

#include "tensor/ops.h"

namespace gradgcl {
namespace {

TEST(SparseTest, EmptyMatrix) {
  SparseMatrix s;
  EXPECT_EQ(s.rows(), 0);
  EXPECT_EQ(s.nnz(), 0);
}

TEST(SparseTest, ToDenseRoundTrip) {
  SparseMatrix s(2, 3, {{0, 1, 2.0}, {1, 0, -1.0}, {1, 2, 3.0}});
  EXPECT_TRUE(AllClose(s.ToDense(), Matrix{{0, 2, 0}, {-1, 0, 3}}));
  EXPECT_EQ(s.nnz(), 3);
}

TEST(SparseTest, DuplicateTripletsSummed) {
  SparseMatrix s(2, 2, {{0, 0, 1.0}, {0, 0, 2.5}, {1, 1, 1.0}});
  EXPECT_TRUE(AllClose(s.ToDense(), Matrix{{3.5, 0}, {0, 1}}));
  EXPECT_EQ(s.nnz(), 2);
}

TEST(SparseTest, MultiplyMatchesDense) {
  Rng rng(3);
  std::vector<Triplet> triplets;
  for (int k = 0; k < 30; ++k) {
    triplets.push_back({rng.UniformInt(6), rng.UniformInt(5), rng.Normal()});
  }
  SparseMatrix s(6, 5, triplets);
  Matrix x = Matrix::RandomNormal(5, 4, rng);
  EXPECT_TRUE(AllClose(s.Multiply(x), MatMul(s.ToDense(), x), 1e-10));
}

TEST(SparseTest, MultiplyTransposedMatchesDense) {
  Rng rng(5);
  std::vector<Triplet> triplets;
  for (int k = 0; k < 30; ++k) {
    triplets.push_back({rng.UniformInt(6), rng.UniformInt(5), rng.Normal()});
  }
  SparseMatrix s(6, 5, triplets);
  Matrix x = Matrix::RandomNormal(6, 3, rng);
  EXPECT_TRUE(AllClose(s.MultiplyTransposed(x),
                       MatMul(s.ToDense().Transposed(), x), 1e-10));
}

TEST(SparseTest, IdentityActsAsIdentity) {
  std::vector<Triplet> triplets;
  for (int i = 0; i < 4; ++i) triplets.push_back({i, i, 1.0});
  SparseMatrix eye(4, 4, triplets);
  Rng rng(7);
  Matrix x = Matrix::RandomNormal(4, 2, rng);
  EXPECT_TRUE(AllClose(eye.Multiply(x), x, 1e-12));
}

TEST(SparseTest, CsrStructureSorted) {
  SparseMatrix s(3, 3, {{2, 0, 1.0}, {0, 2, 1.0}, {0, 1, 1.0}});
  // Row offsets: row0 has 2 entries, row1 none, row2 one.
  ASSERT_EQ(s.row_offsets().size(), 4u);
  EXPECT_EQ(s.row_offsets()[1] - s.row_offsets()[0], 2);
  EXPECT_EQ(s.row_offsets()[2] - s.row_offsets()[1], 0);
  EXPECT_EQ(s.row_offsets()[3] - s.row_offsets()[2], 1);
  // Columns within row 0 are sorted.
  EXPECT_LT(s.col_indices()[0], s.col_indices()[1]);
}

TEST(SparseTest, FromCsrAdoptsCanonicalArrays) {
  const SparseMatrix t(3, 4, {{2, 0, 1.5}, {0, 3, -1.0}, {0, 1, 2.0}});
  const SparseMatrix s =
      SparseMatrix::FromCsr(3, 4, {0, 2, 2, 3}, {1, 3, 0}, {2.0, -1.0, 1.5});
  EXPECT_EQ(s.rows(), 3);
  EXPECT_EQ(s.cols(), 4);
  EXPECT_EQ(s.row_offsets(), t.row_offsets());
  EXPECT_EQ(s.col_indices(), t.col_indices());
  EXPECT_EQ(s.values(), t.values());
  const SparseMatrix empty = SparseMatrix::FromCsr(2, 2, {0, 0, 0}, {}, {});
  EXPECT_EQ(empty.nnz(), 0);
}

TEST(SparseDeathTest, FromCsrRejectsNonCanonicalArrays) {
  // Offsets: wrong count, not starting at 0, arrays of unequal length,
  // not ending at nnz, and decreasing (the last offset still nnz).
  EXPECT_DEATH(SparseMatrix::FromCsr(2, 2, {0, 1}, {0}, {1.0}), "rows \\+ 1");
  EXPECT_DEATH(SparseMatrix::FromCsr(2, 2, {1, 1, 1}, {0}, {1.0}), "0 to nnz");
  EXPECT_DEATH(SparseMatrix::FromCsr(2, 2, {0, 1, 1}, {0}, {1.0, 2.0}),
               "differ in length");
  EXPECT_DEATH(SparseMatrix::FromCsr(2, 2, {0, 1, 1}, {0, 1}, {1.0, 1.0}),
               "0 to nnz");
  EXPECT_DEATH(SparseMatrix::FromCsr(2, 2, {0, 5, 2}, {0, 1}, {1.0, 1.0}),
               "non-decreasing");
  // Columns: out of range, negative, repeated, descending.
  EXPECT_DEATH(SparseMatrix::FromCsr(1, 2, {0, 1}, {2}, {1.0}), "out of range");
  EXPECT_DEATH(SparseMatrix::FromCsr(1, 2, {0, 1}, {-1}, {1.0}),
               "out of range");
  EXPECT_DEATH(SparseMatrix::FromCsr(1, 2, {0, 2}, {1, 1}, {1.0, 1.0}),
               "strictly ascending");
  EXPECT_DEATH(SparseMatrix::FromCsr(1, 2, {0, 2}, {1, 0}, {1.0, 1.0}),
               "strictly ascending");
}

TEST(SparseDeathTest, InvalidTripletAborts) {
  EXPECT_DEATH(SparseMatrix(2, 2, {{2, 0, 1.0}}), "GRADGCL_CHECK");
  EXPECT_DEATH(SparseMatrix(2, 2, {{0, -1, 1.0}}), "GRADGCL_CHECK");
}

TEST(SparseDeathTest, MultiplyShapeMismatchAborts) {
  SparseMatrix s(2, 3, {{0, 0, 1.0}});
  Matrix x(2, 2, 0.0);  // needs 3 rows
  EXPECT_DEATH(s.Multiply(x), "shape mismatch");
}

}  // namespace
}  // namespace gradgcl
