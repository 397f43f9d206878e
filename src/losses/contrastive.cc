#include "losses/contrastive.h"

namespace gradgcl {

namespace {

// One direction of InfoNce: anchors `a` against candidates `b`
// (positives on the diagonal, negatives off-diagonal). The scaled Gram
// and the off-diagonal log-sum-exp are fused nodes, bit-identical to
// the masked op-by-op composition in tests/loss_reference.h.
Variable InfoNceDirected(const Variable& a, const Variable& b, double tau) {
  Variable an = ag::RowNormalize(a);
  Variable bn = ag::RowNormalize(b);
  Variable sim = ag::MatMulTransBScaled(an, bn, 1.0 / tau);          // n x n
  Variable pos = ag::ScalarMul(ag::RowPairDot(an, bn), 1.0 / tau);  // n x 1
  Variable denom = ag::LogSumExpOffDiag(sim);                       // n x 1
  return ag::Mean(ag::Sub(denom, pos));
}

}  // namespace

// softplus(x) = log(1 + e^x), built from stable primitives:
// softplus(x) = max(x, 0) + log(1 + exp(-|x|)), with |x| = relu(x) +
// relu(-x).
Variable Softplus(const Variable& x) {
  Variable absx = ag::Add(ag::Relu(x), ag::Relu(ag::Neg(x)));
  Variable tail = ag::LogEps(ag::ScalarAdd(ag::Exp(ag::Neg(absx)), 1.0), 0.0);
  return ag::Add(ag::Relu(x), tail);
}

Variable JsdLossMasked(const Variable& scores, const Matrix& pos_mask) {
  GRADGCL_CHECK(scores.rows() == pos_mask.rows() &&
                scores.cols() == pos_mask.cols());
  double num_pos = 0.0;
  for (int i = 0; i < pos_mask.size(); ++i) {
    const double m = pos_mask.at_flat(i);
    GRADGCL_CHECK_MSG(m == 0.0 || m == 1.0, "pos_mask must be 0/1");
    num_pos += m;
  }
  const double num_neg = pos_mask.size() - num_pos;
  GRADGCL_CHECK_MSG(num_pos > 0.0 && num_neg > 0.0,
                    "JsdLossMasked needs both positives and negatives");
  Matrix neg_mask(pos_mask.rows(), pos_mask.cols(), 1.0);
  neg_mask -= pos_mask;
  // E_pos[softplus(-s)] + E_neg[softplus(s)].
  Variable pos_term = ag::ScalarMul(
      ag::Sum(ag::Hadamard(Softplus(ag::Neg(scores)), Variable(pos_mask))),
      1.0 / num_pos);
  Variable neg_term = ag::ScalarMul(
      ag::Sum(ag::Hadamard(Softplus(scores), Variable(neg_mask))),
      1.0 / num_neg);
  return ag::Add(pos_term, neg_term);
}

Variable InfoNce(const Variable& u, const Variable& v, double tau) {
  GRADGCL_CHECK(u.rows() == v.rows() && u.cols() == v.cols());
  GRADGCL_CHECK_MSG(u.rows() >= 2, "InfoNce needs >= 2 samples for negatives");
  GRADGCL_CHECK(tau > 0.0);
  Variable forward = InfoNceDirected(u, v, tau);
  Variable backward = InfoNceDirected(v, u, tau);
  return ag::ScalarMul(ag::Add(forward, backward), 0.5);
}

Variable InfoNceEuclidean(const Variable& u, const Variable& v) {
  GRADGCL_CHECK(u.rows() == v.rows() && u.cols() == v.cols());
  const int n = u.rows();
  GRADGCL_CHECK_MSG(n >= 2, "InfoNceEuclidean needs >= 2 samples");
  // Logits: within-view negatives -|u_i - u_j|^2 / 2 for j != i, and the
  // positive -|u_i - v_i|^2 / 2 appended as an extra column.
  Variable neg_logits =
      ag::ScalarMul(ag::PairwiseSquaredDistances(u, u), -0.5);  // n x n
  Variable diff = ag::Sub(u, v);
  Variable pos_logit =
      ag::ScalarMul(ag::SumRows(ag::Square(diff)), -0.5);  // n x 1
  // Denominator mask: off-diagonal within-view entries + the positive.
  Matrix mask(n, n + 1, 1.0);
  for (int i = 0; i < n; ++i) mask(i, i) = 0.0;
  // Assemble [neg_logits | pos_logit] via transpose-free concatenation:
  // ConcatRows on transposes would be awkward, so concatenate columns
  // through Transpose(ConcatRows(Transpose(...))).
  Variable logits = ag::Transpose(
      ag::ConcatRows(ag::Transpose(neg_logits), ag::Transpose(pos_logit)));
  Variable denom = ag::LogSumExpRows(logits, mask);  // n x 1
  return ag::Mean(ag::Sub(denom, pos_logit));
}

Variable JsdLoss(const Variable& u, const Variable& v) {
  GRADGCL_CHECK(u.rows() == v.rows() && u.cols() == v.cols());
  const int n = u.rows();
  GRADGCL_CHECK_MSG(n >= 2, "JsdLoss needs >= 2 samples");
  Variable scores = ag::MatMulTransB(u, v);  // critic: dot products
  Variable pos = ag::RowPairDot(u, v);       // n x 1 (diagonal)
  // E_pos[softplus(-s_ii)].
  Variable pos_term = ag::Mean(Softplus(ag::Neg(pos)));
  // E_neg[softplus(s_ij)], i != j: mask the diagonal out by summing all
  // and subtracting the diagonal contribution.
  Variable sp_all = Softplus(scores);
  Variable sp_diag = Softplus(pos);
  Variable neg_sum = ag::Sub(ag::Sum(sp_all), ag::Sum(sp_diag));
  Variable neg_term =
      ag::ScalarMul(neg_sum, 1.0 / (static_cast<double>(n) * (n - 1)));
  return ag::Add(pos_term, neg_term);
}

Variable SceLoss(const Variable& u, const Variable& v, double gamma) {
  GRADGCL_CHECK(u.rows() == v.rows() && u.cols() == v.cols());
  GRADGCL_CHECK(gamma >= 1.0);
  Variable un = ag::RowNormalize(u);
  Variable vn = ag::RowNormalize(v);
  Variable cos = ag::RowPairDot(un, vn);              // n x 1 in [-1, 1]
  Variable one_minus = ag::ScalarAdd(ag::Neg(cos), 1.0);
  // (1 - cos)^gamma via exp(gamma * log(x)); x >= 0 with eps guard.
  Variable powed =
      ag::Exp(ag::ScalarMul(ag::LogEps(one_minus, 1e-9), gamma));
  return ag::Mean(powed);
}

Variable BootstrapLoss(const Variable& online, const Variable& target) {
  GRADGCL_CHECK(online.rows() == target.rows() &&
                online.cols() == target.cols());
  Variable on = ag::RowNormalize(online);
  Variable tn = ag::RowNormalize(target);
  Variable cos = ag::RowPairDot(on, tn);
  return ag::Mean(ag::ScalarAdd(ag::ScalarMul(cos, -2.0), 2.0));
}

Variable AlignmentLoss(const Variable& u, const Variable& v) {
  GRADGCL_CHECK(u.rows() == v.rows() && u.cols() == v.cols());
  Variable diff = ag::Sub(ag::RowNormalize(u), ag::RowNormalize(v));
  return ag::Mean(ag::SumRows(ag::Square(diff)));
}

Variable ContrastiveLoss(LossKind kind, const Variable& u, const Variable& v,
                         double tau) {
  switch (kind) {
    case LossKind::kInfoNce:
      return InfoNce(u, v, tau);
    case LossKind::kJsd:
      return JsdLoss(u, v);
    case LossKind::kSce:
      return SceLoss(u, v);
  }
  GRADGCL_CHECK_MSG(false, "unknown LossKind");
  return Variable();
}

}  // namespace gradgcl
