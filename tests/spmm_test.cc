// SpMM bit-identity: SparseMatrix::Multiply and MultiplyTransposed run
// the kernel table's spmm gather, which must reproduce the plain CSR
// row loop and the row-by-row scatter bit for bit — in every SIMD
// table, at every thread count, through signed zeros, infinities and
// NaNs, on non-symmetric operators with empty rows and columns.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "tensor/matrix.h"
#include "tensor/simd.h"
#include "tensor/sparse.h"

namespace gradgcl {
namespace {

class SpmmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    simd_ = simd::Enabled();
    threads_ = NumThreads();
    min_cost_ = internal::MinParallelCost();
  }
  void TearDown() override {
    simd::SetEnabled(simd_);
    SetNumThreads(threads_);
    internal::SetMinParallelCost(min_cost_);
  }

 private:
  bool simd_ = true;
  int threads_ = 1;
  int64_t min_cost_ = 0;
};

const std::vector<int> kWidths = {1, 3, 4, 8, 32, 33};

// The NaN this machine's arithmetic produces (inf - inf), so every NaN
// in a product carries one bit pattern whichever operand it came from.
double MachineNan() {
  volatile double inf = std::numeric_limits<double>::infinity();
  return inf - inf;
}

// A non-symmetric rows x cols operator: every 7th row and every 5th
// column stay empty, the rest get up to 8 entries, some of them ±0.0,
// ±inf or NaN.
SparseMatrix RandomOperator(int rows, int cols, Rng& rng) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<Triplet> triplets;
  for (int r = 0; r < rows; ++r) {
    if (r % 7 == 3) continue;
    const int count = rng.UniformInt(9);
    for (int e = 0; e < count; ++e) {
      int c = rng.UniformInt(cols);
      if (c % 5 == 2) c = (c + 1) % cols;
      double v = rng.Normal();
      const int special = rng.UniformInt(40);
      if (special == 0) v = 0.0;
      if (special == 1) v = -0.0;
      if (special == 2) v = inf;
      if (special == 3) v = MachineNan();
      triplets.push_back({r, c, v});
    }
  }
  return SparseMatrix(rows, cols, std::move(triplets));
}

// Dense input with ±0.0, ±inf and NaN sprinkled in.
Matrix RandomInput(int rows, int cols, Rng& rng) {
  const double inf = std::numeric_limits<double>::infinity();
  Matrix x = Matrix::RandomNormal(rows, cols, rng);
  for (int i = 0; i < x.size(); ++i) {
    switch (rng.UniformInt(50)) {
      case 0: x.at_flat(i) = 0.0; break;
      case 1: x.at_flat(i) = -0.0; break;
      case 2: x.at_flat(i) = inf; break;
      case 3: x.at_flat(i) = -inf; break;
      case 4: x.at_flat(i) = MachineNan(); break;
      default: break;
    }
  }
  return x;
}

// The CSR row loop Multiply used to run: zero-filled output, then
// y += v * x over each row's entries in order.
Matrix RowLoopMultiply(const SparseMatrix& s, const Matrix& x) {
  Matrix y(s.rows(), x.cols(), 0.0);
  for (int r = 0; r < s.rows(); ++r) {
    for (int k = s.row_offsets()[r]; k < s.row_offsets()[r + 1]; ++k) {
      const double v = s.values()[k];
      const double* xrow = x.data() + int64_t{s.col_indices()[k]} * x.cols();
      double* yrow = y.data() + int64_t{r} * x.cols();
      for (int j = 0; j < x.cols(); ++j) yrow[j] += v * xrow[j];
    }
  }
  return y;
}

// The serial scatter MultiplyTransposed used to run.
Matrix ScatterMultiplyTransposed(const SparseMatrix& s, const Matrix& x) {
  Matrix y(s.cols(), x.cols(), 0.0);
  for (int r = 0; r < s.rows(); ++r) {
    const double* xrow = x.data() + int64_t{r} * x.cols();
    for (int k = s.row_offsets()[r]; k < s.row_offsets()[r + 1]; ++k) {
      const double v = s.values()[k];
      double* yrow = y.data() + int64_t{s.col_indices()[k]} * x.cols();
      for (int j = 0; j < x.cols(); ++j) yrow[j] += v * xrow[j];
    }
  }
  return y;
}

::testing::AssertionResult SameBits(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  for (int i = 0; i < a.size(); ++i) {
    const double av = a.at_flat(i);
    const double bv = b.at_flat(i);
    if (std::memcmp(&av, &bv, sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << av << " vs " << bv;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST_F(SpmmTest, MultiplyMatchesRowLoopBitwise) {
  Rng rng(101);
  const SparseMatrix s = RandomOperator(157, 131, rng);
  for (bool simd_on : {true, false}) {
    simd::SetEnabled(simd_on);
    for (int width : kWidths) {
      const Matrix x = RandomInput(131, width, rng);
      EXPECT_TRUE(SameBits(s.Multiply(x), RowLoopMultiply(s, x)))
          << "width " << width << " simd " << simd_on;
    }
  }
}

TEST_F(SpmmTest, MultiplyTransposedMatchesScatterBitwise) {
  Rng rng(102);
  const SparseMatrix s = RandomOperator(157, 131, rng);
  for (bool simd_on : {true, false}) {
    simd::SetEnabled(simd_on);
    for (int width : kWidths) {
      const Matrix x = RandomInput(157, width, rng);
      EXPECT_TRUE(
          SameBits(s.MultiplyTransposed(x), ScatterMultiplyTransposed(s, x)))
          << "width " << width << " simd " << simd_on;
    }
  }
}

TEST_F(SpmmTest, TransposedIsCanonicalCsrOfTheTranspose) {
  Rng rng(103);
  const SparseMatrix s = RandomOperator(61, 47, rng);
  const SparseMatrix t = s.Transposed();
  EXPECT_EQ(t.rows(), s.cols());
  EXPECT_EQ(t.cols(), s.rows());
  EXPECT_EQ(t.nnz(), s.nnz());
  // FromCsr rejects anything but canonical CSR.
  const SparseMatrix checked = SparseMatrix::FromCsr(
      t.rows(), t.cols(), t.row_offsets(), t.col_indices(), t.values());
  EXPECT_EQ(checked.nnz(), t.nnz());
  EXPECT_TRUE(SameBits(t.ToDense(), s.ToDense().Transposed()));
  EXPECT_TRUE(SameBits(t.Transposed().ToDense(), s.ToDense()));
}

TEST_F(SpmmTest, KernelTablesAgreeBitwise) {
  Rng rng(104);
  const SparseMatrix s = RandomOperator(89, 73, rng);
  for (int width : kWidths) {
    const Matrix x = RandomInput(73, width, rng);
    // A strip in the middle as well as the whole operator: the kernel
    // must leave rows outside [r0, r1) alone.
    for (const auto& [r0, r1] : {std::pair<int, int>{0, 89}, {17, 40}}) {
      Matrix vec(89, width, 7.0);
      Matrix scalar(89, width, 7.0);
      simd::SetEnabled(true);
      simd::Active().spmm(s.row_offsets().data(), s.col_indices().data(),
                          s.values().data(), x.data(), vec.data(), r0, r1,
                          width);
      simd::SetEnabled(false);
      simd::Active().spmm(s.row_offsets().data(), s.col_indices().data(),
                          s.values().data(), x.data(), scalar.data(), r0, r1,
                          width);
      EXPECT_TRUE(SameBits(vec, scalar))
          << simd::IsaName(simd::CompiledIsa()) << " width " << width
          << " rows [" << r0 << ", " << r1 << ")";
    }
  }
}

TEST_F(SpmmTest, ProductsBitIdenticalAcrossThreadCounts) {
  Rng rng(105);
  const SparseMatrix s = RandomOperator(613, 587, rng);
  // Force every region to fan out so the row chunks really split.
  internal::SetMinParallelCost(0);
  for (bool simd_on : {true, false}) {
    simd::SetEnabled(simd_on);
    for (int width : {3, 32, 33}) {
      const Matrix x = RandomInput(587, width, rng);
      const Matrix g = RandomInput(613, width, rng);
      SetNumThreads(1);
      const Matrix y1 = s.Multiply(x);
      const Matrix t1 = s.MultiplyTransposed(g);
      for (int threads : {2, 4}) {
        SetNumThreads(threads);
        EXPECT_TRUE(SameBits(s.Multiply(x), y1))
            << threads << " threads, width " << width << " simd " << simd_on;
        EXPECT_TRUE(SameBits(s.MultiplyTransposed(g), t1))
            << threads << " threads, width " << width << " simd " << simd_on;
      }
    }
  }
}

}  // namespace
}  // namespace gradgcl
