// Op-by-op reference compositions of the GradGCL losses. Production
// builds InfoNce (losses/contrastive.cc) and the Eq. 6 / JSD gradient
// features (core/gradient_features.cc) from fused nodes; these are the
// same graphs written with one primitive autograd op per step and an
// explicit n x n off-diagonal mask. pool_test memcmps values and input
// gradients of production against them, so the fused nodes must replay
// exactly this rounding sequence.

#ifndef GRADGCL_TESTS_LOSS_REFERENCE_H_
#define GRADGCL_TESTS_LOSS_REFERENCE_H_

#include "autograd/ops.h"
#include "common/check.h"
#include "tensor/matrix.h"

namespace gradgcl::reference {

// Off-diagonal 0/1 mask of size n x n.
inline Matrix OffDiagonalMask(int n) {
  Matrix mask(n, n, 1.0);
  for (int i = 0; i < n; ++i) mask(i, i) = 0.0;
  return mask;
}

// One direction of InfoNCE: anchors `a` against candidates `b`.
inline Variable InfoNceDirected(const Variable& a, const Variable& b,
                                double tau) {
  const int n = a.rows();
  Variable an = ag::RowNormalize(a);
  Variable bn = ag::RowNormalize(b);
  Variable sim = ag::ScalarMul(ag::MatMulTransB(an, bn), 1.0 / tau);
  Variable pos = ag::ScalarMul(ag::RowPairDot(an, bn), 1.0 / tau);  // n x 1
  Variable denom = ag::LogSumExpRows(sim, OffDiagonalMask(n));      // n x 1
  return ag::Mean(ag::Sub(denom, pos));
}

// Symmetric InfoNCE, as gradgcl::InfoNce.
inline Variable InfoNce(const Variable& u, const Variable& v, double tau) {
  Variable forward = InfoNceDirected(u, v, tau);
  Variable backward = InfoNceDirected(v, u, tau);
  return ag::ScalarMul(ag::Add(forward, backward), 0.5);
}

// Eq. 6 gradient features, as gradgcl::InfoNceGradientFeatures.
inline Variable InfoNceGradientFeatures(const Variable& u, const Variable& v,
                                        double tau) {
  GRADGCL_CHECK(u.rows() == v.rows() && u.cols() == v.cols());
  const int n = u.rows();
  const double inv_tau = 1.0 / tau;
  const Variable un = ag::RowNormalize(u);
  const Variable vn = ag::RowNormalize(v);

  // Within-view similarities s_ij = û_i·û_j / τ, masked off-diagonal.
  Variable s = ag::ScalarMul(ag::MatMulTransB(un, un), inv_tau);  // n x n
  const Matrix mask = OffDiagonalMask(n);
  Variable exp_s = ag::Hadamard(ag::Exp(s), Variable(mask));    // kills diag
  // Z_i includes the positive term (the standard InfoNCE denominator).
  Variable p = ag::ScalarMul(ag::RowPairDot(un, vn), inv_tau);  // n x 1
  Variable exp_p = ag::Exp(p);
  Variable z = ag::Add(ag::SumRows(exp_s), exp_p);              // n x 1
  Variable inv_z = ag::Reciprocal(z);

  // Positive coefficient (1 − exp(p_i)/Z_i)/τ ∈ (0, 1/τ).
  Variable pos_ratio = ag::Hadamard(exp_p, inv_z);              // n x 1
  Variable pos_coeff =
      ag::ScalarMul(ag::ScalarAdd(ag::Neg(pos_ratio), 1.0), inv_tau);
  Variable positive_term = ag::ScaleRowsVar(vn, pos_coeff);     // n x d

  // Negative term: Σ_{j≠i} α_ij û_j / τ with α_ij = exp(s_ij)/Z_i.
  Variable alpha = ag::ScaleRowsVar(exp_s, inv_z);              // n x n
  Variable negative_term = ag::ScalarMul(ag::MatMul(alpha, un), inv_tau);
  return ag::Sub(positive_term, negative_term);
}

// JSD gradient features, as gradgcl::JsdGradientFeatures.
inline Variable JsdGradientFeatures(const Variable& u, const Variable& v) {
  GRADGCL_CHECK(u.rows() == v.rows() && u.cols() == v.cols());
  const int n = u.rows();
  Variable scores = ag::MatMulTransB(u, v);                       // n x n
  Variable pos = ag::RowPairDot(u, v);                            // n x 1
  // Positive pull: −σ(−s_ii)/n · v_i.
  Variable pos_coeff = ag::ScalarMul(ag::Sigmoid(ag::Neg(pos)), -1.0 / n);
  Variable positive_term = ag::ScaleRowsVar(v, pos_coeff);
  // Negative push: Σ_{j≠i} σ(s_ij) v_j / (n(n−1)).
  const Matrix mask = OffDiagonalMask(n);
  Variable sig = ag::Hadamard(ag::Sigmoid(scores), Variable(mask));
  Variable negative_term = ag::ScalarMul(
      ag::MatMul(sig, v), 1.0 / (static_cast<double>(n) * (n - 1)));
  return ag::Add(positive_term, negative_term);
}

// The GradGCL objective (Eqs. 18–19) for the InfoNCE family at
// 0 < a < 1, as gradgcl::GradGclLoss:
//   (1 − a)·InfoNce(u, v) + a·InfoNce(g(u, v), g(v, u)).
inline Variable GradGclLoss(const Variable& u, const Variable& v, double a,
                            double tau) {
  // Qualified: argument-dependent lookup also finds the production ops.
  Variable lf = reference::InfoNce(u, v, tau);
  Variable g = reference::InfoNceGradientFeatures(u, v, tau);
  Variable g_prime = reference::InfoNceGradientFeatures(v, u, tau);
  Variable lg = reference::InfoNce(g, g_prime, tau);
  return ag::Add(ag::ScalarMul(lf, 1.0 - a), ag::ScalarMul(lg, a));
}

}  // namespace gradgcl::reference

#endif  // GRADGCL_TESTS_LOSS_REFERENCE_H_
