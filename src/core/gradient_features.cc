#include "core/gradient_features.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/parallel.h"
#include "tensor/ops.h"

namespace gradgcl {

Variable InfoNceGradientFeatures(const Variable& u, const Variable& v,
                                 double tau) {
  GRADGCL_CHECK(u.rows() == v.rows() && u.cols() == v.cols());
  GRADGCL_CHECK_MSG(u.rows() >= 2, "gradient features need >= 2 samples");
  GRADGCL_CHECK(tau > 0.0);
  const double inv_tau = 1.0 / tau;

  // Eq. 4 uses cosine similarity, so Eq. 6's u, v are the L2-normalised
  // rows, which also bounds every exp() by e^{1/τ}. Z_i includes the
  // positive term (the standard InfoNCE denominator; see DESIGN.md).
  // This is the op-by-op composition in tests/loss_reference.h with its
  // single-consumer chains fused (no n x n mask, no unmasked exp, no
  // stored α); the fused nodes replay its rounding and per-node
  // gradient accumulation order, so values and gradients are
  // bit-identical (tests/pool_test.cc).
  Variable un;
  Variable s = ag::CosineGram(u, inv_tau, &un);                 // n x n
  const Variable vn = ag::RowNormalize(v);
  Variable exp_s;
  Variable sum_exp = ag::MaskedExpRowSum(s, &exp_s);            // n x 1

  Variable p = ag::ScalarMul(ag::RowPairDot(un, vn), inv_tau);  // n x 1
  Variable exp_p = ag::Exp(p);
  Variable z = ag::Add(sum_exp, exp_p);                         // n x 1
  Variable inv_z = ag::Reciprocal(z);

  Variable pos_ratio = ag::Hadamard(exp_p, inv_z);              // n x 1
  Variable pos_coeff =
      ag::ScalarMul(ag::ScalarAdd(ag::Neg(pos_ratio), 1.0), inv_tau);
  Variable positive_term = ag::ScaleRowsVar(vn, pos_coeff);     // n x d

  Variable negative_term = ag::ScaleRowsMatMul(exp_s, inv_z, un, inv_tau);
  return ag::Sub(positive_term, negative_term);
}

Variable JsdGradientFeatures(const Variable& u, const Variable& v) {
  GRADGCL_CHECK(u.rows() == v.rows() && u.cols() == v.cols());
  const int n = u.rows();
  GRADGCL_CHECK_MSG(n >= 2, "gradient features need >= 2 samples");

  Variable scores = ag::MatMulTransB(u, v);                       // n x n
  Variable pos = ag::RowPairDot(u, v);                            // n x 1
  Variable pos_coeff =
      ag::ScalarMul(ag::Sigmoid(ag::Neg(pos)), -1.0 / n);
  Variable positive_term = ag::ScaleRowsVar(v, pos_coeff);
  // Fused off-diagonal sigmoid + scaled product — no mask matrix.
  Variable sig = ag::OffDiagSigmoid(scores);
  Variable negative_term = ag::MatMulScaled(
      sig, v, 1.0 / (static_cast<double>(n) * (n - 1)));
  return ag::Add(positive_term, negative_term);
}

Variable SceGradientFeatures(const Variable& u, const Variable& v,
                             double gamma) {
  GRADGCL_CHECK(u.rows() == v.rows() && u.cols() == v.cols());
  GRADGCL_CHECK(gamma >= 1.0);
  Variable un = ag::RowNormalize(u);
  Variable vn = ag::RowNormalize(v);
  Variable cos = ag::RowPairDot(un, vn);                          // n x 1
  Variable one_minus = ag::ScalarAdd(ag::Neg(cos), 1.0);
  // γ (1 − c)^{γ−1}.
  Variable outer = ag::ScalarMul(
      ag::Exp(ag::ScalarMul(ag::LogEps(one_minus, 1e-9), gamma - 1.0)), gamma);
  // d(−cos)/du_i = −(v̂_i − c û_i)/|u_i|.
  Variable norms = ag::Sqrt(ag::SumRows(ag::Square(u)), 1e-12);   // n x 1
  Variable inv_norm = ag::Reciprocal(norms);
  Variable residual = ag::Sub(vn, ag::ScaleRowsVar(un, cos));     // n x d
  Variable direction = ag::ScaleRowsVar(residual, inv_norm);
  return ag::ScaleRowsVar(direction, ag::ScalarMul(outer, -1.0));
}

Variable GradientFeatures(LossKind kind, const Variable& u, const Variable& v,
                          double tau) {
  switch (kind) {
    case LossKind::kInfoNce:
      return InfoNceGradientFeatures(u, v, tau);
    case LossKind::kJsd:
      return JsdGradientFeatures(u, v);
    case LossKind::kSce:
      return SceGradientFeatures(u, v);
  }
  GRADGCL_CHECK_MSG(false, "unknown LossKind");
  return Variable();
}

Matrix EuclideanGradientFeatures(const Matrix& u, const Matrix& v) {
  GRADGCL_CHECK(u.rows() == v.rows() && u.cols() == v.cols());
  const int n = u.rows();
  const int d = u.cols();
  GRADGCL_CHECK(n >= 2);

  // α_ij = exp(−|u_i−u_j|²/2)/Z_i (j≠i), α_ii = exp(−|u_i−v_i|²/2)/Z_i.
  // Row-parallel: every value of row i (weights, Z_i, normalisation) is
  // computed inside one chunk in the serial index order, so any thread
  // count produces identical bits.
  const Matrix d2 = SquaredDistanceMatrix(u, u);
  Matrix alpha = Matrix::Uninitialized(n, n);
  const int64_t grain = std::max<int64_t>(1, (int64_t{1} << 15) / n);
  // Cost hints: one exp per α entry for the weight pass, one d-wide
  // madd row per neighbour for the gradient pass.
  ParallelFor(0, n, grain, /*cost_per_iter=*/16 * n,
              [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      double pd2 = 0.0;
      for (int j = 0; j < d; ++j) {
        const double diff = u(i, j) - v(i, j);
        pd2 += diff * diff;
      }
      const double pos_w = std::exp(-pd2 / 2.0);
      double z = pos_w;
      for (int j = 0; j < n; ++j) {
        if (j == i) continue;
        alpha(i, j) = std::exp(-d2(i, j) / 2.0);
        z += alpha(i, j);
      }
      for (int j = 0; j < n; ++j) {
        if (j != i) alpha(i, j) /= z;
      }
      alpha(i, i) = pos_w / z;
    }
  });

  // ∂L/∂u_i = (1 − α_ii)(u_i − v_i)            [its own positive]
  //           − Σ_{j≠i} α_ij (u_i − u_j)       [its own negatives]
  //           − Σ_{k≠i} α_ki (u_i − u_k)       [as a negative for k]
  // Needs the full α, hence a second ParallelFor; each output row is a
  // k-ascending reduction local to its chunk.
  Matrix g(n, d, 0.0);
  ParallelFor(0, n, grain, /*cost_per_iter=*/2 * n * d,
              [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      const double own = 1.0 - alpha(i, i);
      for (int j = 0; j < d; ++j) g(i, j) += own * (u(i, j) - v(i, j));
      for (int k = 0; k < n; ++k) {
        if (k == i) continue;
        const double w = alpha(i, k) + alpha(k, i);
        for (int j = 0; j < d; ++j) g(i, j) -= w * (u(i, j) - u(k, j));
      }
    }
  });
  return g;
}

}  // namespace gradgcl
