// CSR sparse matrix used for (normalised) graph adjacency operators.
//
// GNN layers apply  H' = S · H  where S is a batched block-diagonal
// adjacency with O(E) non-zeros; materialising it densely would be
// quadratic in the batch's node count. SparseMatrix supports exactly
// the operations the library needs: sparse × dense products (and the
// transposed product required by backprop) plus construction from
// triplets.
//
// Both products are the same row-parallel gather (the simd table's
// spmm entry): each output row sums from +0.0 over its CSR entries in
// order, product then add, so the bits depend on neither the thread
// count nor the SIMD table. S^T X runs that gather over Transposed(),
// whose rows list their entries in ascending source row — the order a
// row-by-row scatter of S would accumulate them in.

#ifndef GRADGCL_TENSOR_SPARSE_H_
#define GRADGCL_TENSOR_SPARSE_H_

#include <vector>

#include "tensor/matrix.h"

namespace gradgcl {

// One entry of a sparse matrix under construction.
struct Triplet {
  int row = 0;
  int col = 0;
  double value = 0.0;
};

// Immutable CSR sparse matrix.
class SparseMatrix {
 public:
  // Creates an empty 0x0 matrix.
  SparseMatrix() = default;

  // Builds from triplets; duplicate (row, col) entries are summed.
  SparseMatrix(int rows, int cols, std::vector<Triplet> triplets);

  // Adopts arrays that are already canonical CSR: row_offsets has
  // rows + 1 non-decreasing entries from 0 to nnz, and each row's
  // columns are in range and strictly ascending. Checked in every
  // build; the result equals the triplet constructor's for the same
  // entries.
  static SparseMatrix FromCsr(int rows, int cols, std::vector<int> row_offsets,
                              std::vector<int> col_indices,
                              std::vector<double> values);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int nnz() const { return static_cast<int>(values_.size()); }

  // y = this * x  (dense x with x.rows() == cols()).
  Matrix Multiply(const Matrix& x) const;

  // y = this^T * x  (dense x with x.rows() == rows()); equal to
  // Transposed().Multiply(x), which it builds on each call. Callers
  // that apply S^T repeatedly keep Transposed() instead.
  Matrix MultiplyTransposed(const Matrix& x) const;

  // S^T as canonical CSR, built by a counting sort in O(nnz + cols).
  SparseMatrix Transposed() const;

  // Densifies; intended for tests and tiny graphs only.
  Matrix ToDense() const;

  // CSR internals (used by iteration-heavy algorithms, e.g. WL).
  const std::vector<int>& row_offsets() const { return row_offsets_; }
  const std::vector<int>& col_indices() const { return col_indices_; }
  const std::vector<double>& values() const { return values_; }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<int> row_offsets_;   // size rows_ + 1
  std::vector<int> col_indices_;   // size nnz
  std::vector<double> values_;     // size nnz
};

}  // namespace gradgcl

#endif  // GRADGCL_TENSOR_SPARSE_H_
