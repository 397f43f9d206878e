// Differentiable operations on Variables.
//
// Each op returns a new Variable whose tape node knows how to push
// gradients back into its inputs. All ops are validated against
// central finite differences in tests/autograd_test.cc via
// autograd/gradcheck.h.
//
// Ops live in the nested namespace gradgcl::ag so call sites read
// ag::MatMul(x, w) and are visibly differentiable (as opposed to the
// raw kernels in tensor/ops.h).

#ifndef GRADGCL_AUTOGRAD_OPS_H_
#define GRADGCL_AUTOGRAD_OPS_H_

#include <vector>

#include "autograd/variable.h"
#include "common/rng.h"
#include "tensor/sparse.h"

namespace gradgcl::ag {

// --- Arithmetic -------------------------------------------------------------

Variable Add(const Variable& a, const Variable& b);
Variable Sub(const Variable& a, const Variable& b);
Variable Neg(const Variable& a);
Variable ScalarMul(const Variable& a, double s);
Variable ScalarAdd(const Variable& a, double s);
Variable Hadamard(const Variable& a, const Variable& b);

// --- Products ---------------------------------------------------------------

// a * b with full gradients to both operands.
Variable MatMul(const Variable& a, const Variable& b);

// a * b^T with full gradients to both operands.
Variable MatMulTransB(const Variable& a, const Variable& b);

// s * a for a constant sparse operator s (the batched adjacency);
// backward applies s^T. Gradient flows only into a; when a needs none
// (constant input features), the node keeps nothing of s.
Variable SparseLeftMatMul(const SparseMatrix& s, const Variable& a);

// x * w + b with the 1 x d bias b broadcast over rows: the dense layer
// as one tape node. Value and gradients of x, w and b are bit-identical
// to AddRowBroadcast(MatMul(x, w), b) in every SIMD mode and at every
// thread count (tests/pool_test.cc), with one n x d buffer on the tape
// instead of two. Backward reads the output gradient directly: ColSum
// for b, G w^T for x, x^T G for w. The composition survives only as
// the tests' reference.
Variable Linear(const Variable& x, const Variable& w, const Variable& b);

Variable Transpose(const Variable& a);

// --- Elementwise nonlinearities ----------------------------------------------

Variable Relu(const Variable& a);
// max(x, slope * x) with slope in (0, 1).
Variable LeakyRelu(const Variable& a, double slope = 0.2);
Variable Tanh(const Variable& a);
Variable Sigmoid(const Variable& a);
Variable Exp(const Variable& a);
// log(a + eps); the eps guard keeps contrastive losses finite.
Variable LogEps(const Variable& a, double eps = 1e-12);
Variable Sqrt(const Variable& a, double eps = 1e-12);
Variable Square(const Variable& a);
// 1 / (a + eps), elementwise.
Variable Reciprocal(const Variable& a, double eps = 1e-12);

// Elementwise dropout: each entry zeroed with probability p and the
// rest scaled by 1/(1-p) (inverted dropout). Identity when p == 0.
Variable Dropout(const Variable& a, double p, Rng& rng);

// --- Reductions -------------------------------------------------------------

// Sum / mean of all elements, to a 1x1 scalar.
Variable Sum(const Variable& a);
Variable Mean(const Variable& a);

// Per-row sum: n x d -> n x 1.
Variable SumRows(const Variable& a);

// --- Row geometry -------------------------------------------------------------

// Rows scaled to unit L2 norm (rows with norm < eps pass through with
// zero gradient).
Variable RowNormalize(const Variable& a, double eps = 1e-12);

// Row-wise dot products of equally-shaped a, b: n x d -> n x 1.
Variable RowPairDot(const Variable& a, const Variable& b);

// Scales row i of a (n x d) by scale(i, 0) (n x 1): out = diag(s) a.
Variable ScaleRowsVar(const Variable& a, const Variable& scale);

// Pairwise squared Euclidean distances: out(i, j) = |a_i - b_j|^2.
Variable PairwiseSquaredDistances(const Variable& a, const Variable& b);

// Row-wise log-sum-exp over masked entries:
//   out_i = log Σ_j mask(i, j) · exp(a(i, j)).
// `mask` is a constant 0/1 matrix; every row must select >= 1 entry.
Variable LogSumExpRows(const Variable& a, const Matrix& mask);

// Numerically stable row softmax restricted to mask(i, j) = 1 entries;
// masked-out entries are exactly 0 in the output. Every row must
// select >= 1 entry. (The attention kernel of GAT.)
Variable MaskedRowSoftmax(const Variable& a, const Matrix& mask);

// --- Fused kernels ----------------------------------------------------------
// Forward/backward fusions of the GradGCL loss pipeline. Each produces
// bit-identical values AND gradients to the unfused op composition it
// replaces (the equivalence is exact, enforced by tests/pool_test.cc),
// while building fewer tape nodes and touching fewer n x n temporaries.

// a * b^T * scale in one pass (fuses MatMulTransB + ScalarMul).
Variable MatMulTransBScaled(const Variable& a, const Variable& b, double scale);

// The cosine Gram matrix of u at inverse temperature inv_tau:
// rownormalize(u) * rownormalize(u)^T * inv_tau. If `normalized` is
// non-null it receives the shared û node (needed again by the
// positive/negative terms of the gradient features).
Variable CosineGram(const Variable& u, double inv_tau,
                    Variable* normalized = nullptr);

// Row sums of the off-diagonal-masked exp(s): returns
// Σ_j≠i exp(s_ij) as n x 1, without materialising a mask matrix. If
// `exp_out` is non-null it receives the masked exp(s) node (the
// numerator of the α coefficients). Fuses Exp + Hadamard(mask) +
// SumRows.
Variable MaskedExpRowSum(const Variable& s, Variable* exp_out = nullptr);

// (diag(scale) a) * b * post in one pass — the α·û negative term.
// Fuses ScaleRowsVar + MatMul + ScalarMul.
Variable ScaleRowsMatMul(const Variable& a, const Variable& scale,
                         const Variable& b, double post);

// a * b * post (fuses MatMul + ScalarMul).
Variable MatMulScaled(const Variable& a, const Variable& b, double post);

// Elementwise sigmoid with the diagonal masked to 0 (fuses Sigmoid +
// Hadamard(offdiag mask)).
Variable OffDiagSigmoid(const Variable& a);

// Row-wise log Σ_j≠i exp(a_ij) for square a — LogSumExpRows with the
// implicit off-diagonal mask, no mask matrix.
Variable LogSumExpOffDiag(const Variable& a);

// --- Broadcasts ----------------------------------------------------------------

// Adds a 1 x d row (e.g. a bias) to every row of a.
Variable AddRowBroadcast(const Variable& a, const Variable& row);

// --- Structure -------------------------------------------------------------------

// Stacks b below a.
Variable ConcatRows(const Variable& a, const Variable& b);

// Rows of a selected (with repetition allowed) by `indices`;
// backward scatter-adds.
Variable GatherRows(const Variable& a, const std::vector<int>& indices);

// --- Graph pooling ---------------------------------------------------------------

// Segment sum: rows of a grouped by segment id (0-based, dense), out
// has num_segments rows. Used as the GNN readout over batched graphs.
Variable SegmentSum(const Variable& a, const std::vector<int>& segments,
                    int num_segments);
// Segment mean; empty segments yield zero rows.
Variable SegmentMean(const Variable& a, const std::vector<int>& segments,
                     int num_segments);

// --- Classification losses ---------------------------------------------------------

// Mean softmax cross-entropy of n x c logits against integer labels.
Variable SoftmaxCrossEntropy(const Variable& logits,
                             const std::vector<int>& labels);

// Mean binary cross-entropy with logits against constant 0/1 targets
// of identical shape (numerically stable formulation).
Variable BinaryCrossEntropyWithLogits(const Variable& logits,
                                      const Matrix& targets);

}  // namespace gradgcl::ag

#endif  // GRADGCL_AUTOGRAD_OPS_H_
