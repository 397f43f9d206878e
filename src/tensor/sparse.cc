#include "tensor/sparse.h"

#include <algorithm>

#include "common/parallel.h"
#include "tensor/simd.h"

namespace gradgcl {

SparseMatrix::SparseMatrix(int rows, int cols, std::vector<Triplet> triplets)
    : rows_(rows), cols_(cols) {
  GRADGCL_CHECK(rows >= 0 && cols >= 0);
  for (const Triplet& t : triplets) {
    GRADGCL_CHECK(t.row >= 0 && t.row < rows && t.col >= 0 && t.col < cols);
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  row_offsets_.assign(rows + 1, 0);
  col_indices_.reserve(triplets.size());
  values_.reserve(triplets.size());
  for (size_t i = 0; i < triplets.size();) {
    size_t j = i;
    double sum = 0.0;
    while (j < triplets.size() && triplets[j].row == triplets[i].row &&
           triplets[j].col == triplets[i].col) {
      sum += triplets[j].value;
      ++j;
    }
    col_indices_.push_back(triplets[i].col);
    values_.push_back(sum);
    ++row_offsets_[triplets[i].row + 1];
    i = j;
  }
  for (int r = 0; r < rows; ++r) row_offsets_[r + 1] += row_offsets_[r];
}

SparseMatrix SparseMatrix::FromCsr(int rows, int cols,
                                   std::vector<int> row_offsets,
                                   std::vector<int> col_indices,
                                   std::vector<double> values) {
  GRADGCL_CHECK(rows >= 0 && cols >= 0);
  GRADGCL_CHECK_MSG(row_offsets.size() == static_cast<size_t>(rows) + 1,
                    "CSR row_offsets must have rows + 1 entries");
  GRADGCL_CHECK_MSG(col_indices.size() == values.size(),
                    "CSR col_indices and values differ in length");
  GRADGCL_CHECK_MSG(row_offsets[0] == 0 &&
                        static_cast<size_t>(row_offsets[rows]) ==
                            col_indices.size(),
                    "CSR row_offsets must run from 0 to nnz");
  for (int r = 0; r < rows; ++r) {
    const int begin = row_offsets[r];
    const int end = row_offsets[r + 1];
    GRADGCL_CHECK_MSG(begin <= end && end <= row_offsets[rows],
                      "CSR row_offsets must be non-decreasing");
    for (int k = begin; k < end; ++k) {
      const int c = col_indices[k];
      GRADGCL_CHECK_MSG(c >= 0 && c < cols, "CSR column out of range");
      GRADGCL_CHECK_MSG(k == begin || col_indices[k - 1] < c,
                        "CSR columns must be strictly ascending in a row");
    }
  }
  SparseMatrix s;
  s.rows_ = rows;
  s.cols_ = cols;
  s.row_offsets_ = std::move(row_offsets);
  s.col_indices_ = std::move(col_indices);
  s.values_ = std::move(values);
  return s;
}

Matrix SparseMatrix::Multiply(const Matrix& x) const {
  GRADGCL_CHECK_MSG(x.rows() == cols_, "SparseMatrix::Multiply shape mismatch");
  const int64_t cols = x.cols();
  Matrix y = Matrix::Uninitialized(rows_, x.cols());
  const double* xdata = x.data();
  double* ydata = y.data();
  const simd::KernelTable& kt = simd::Active();
  // The GCN/GIN aggregation hot path, and through Transposed() its
  // backward. Row-parallel over CSR rows: the spmm kernel computes each
  // output row from +0.0 in CSR order inside one chunk, so results are
  // bit-identical for every thread count and every kernel table. Grain
  // assumes the average row density; skewed rows just make chunks
  // uneven.
  const int64_t avg_row_work =
      rows_ > 0 ? (static_cast<int64_t>(nnz()) * cols) / rows_ : 0;
  constexpr int64_t kMinWorkPerChunk = 1 << 15;
  const int64_t grain =
      avg_row_work > 0 ? std::max<int64_t>(1, kMinWorkPerChunk / avg_row_work)
                       : rows_;
  // Cost hint: 2 FLOPs (mul + add) per stored value per output column,
  // averaged over rows for the per-iteration estimate.
  ParallelFor(0, rows_, grain, /*cost_per_iter=*/2 * avg_row_work,
              [&](int64_t r0, int64_t r1) {
                kt.spmm(row_offsets_.data(), col_indices_.data(),
                        values_.data(), xdata, ydata, r0, r1, cols);
              });
  return y;
}

SparseMatrix SparseMatrix::Transposed() const {
  // Counting sort by column. Rows are scattered in ascending order, so
  // row c of the transpose lists every r with a stored (r, c) in
  // ascending r: canonical CSR, and exactly the order in which a
  // row-by-row scatter of this matrix would reach output row c.
  SparseMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  t.row_offsets_.assign(static_cast<size_t>(cols_) + 1, 0);
  for (int c : col_indices_) ++t.row_offsets_[c + 1];
  for (int c = 0; c < cols_; ++c) t.row_offsets_[c + 1] += t.row_offsets_[c];
  t.col_indices_.resize(col_indices_.size());
  t.values_.resize(values_.size());
  std::vector<int> next(t.row_offsets_.begin(), t.row_offsets_.end() - 1);
  for (int r = 0; r < rows_; ++r) {
    for (int k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      const int dst = next[col_indices_[k]]++;
      t.col_indices_[dst] = r;
      t.values_[dst] = values_[k];
    }
  }
  return t;
}

Matrix SparseMatrix::MultiplyTransposed(const Matrix& x) const {
  GRADGCL_CHECK_MSG(x.rows() == rows_,
                    "SparseMatrix::MultiplyTransposed shape mismatch");
  return Transposed().Multiply(x);
}

Matrix SparseMatrix::ToDense() const {
  Matrix d(rows_, cols_, 0.0);
  for (int r = 0; r < rows_; ++r) {
    for (int k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      d(r, col_indices_[k]) += values_[k];
    }
  }
  return d;
}

}  // namespace gradgcl
