// Tests of the paper's core contribution: the closed-form gradient
// features (Eq. 6 and friends), their consistency with the actual
// derivatives of the losses they mirror, and the combined GradGCL
// objective (Eqs. 18–19).

#include <cmath>

#include <gtest/gtest.h>

#include "autograd/gradcheck.h"
#include "core/grad_gcl_loss.h"
#include "tensor/ops.h"

namespace gradgcl {
namespace {

using VarList = std::vector<Variable>;

Variable Param(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  return Variable(Matrix::RandomNormal(rows, cols, rng), true);
}

void ExpectGradOk(const std::function<Variable(const VarList&)>& forward,
                  VarList inputs, double tol = 1e-5) {
  const ag::GradCheckResult result =
      ag::CheckGradients(forward, std::move(inputs), 1e-5, tol);
  EXPECT_TRUE(result.ok) << "max error " << result.max_abs_error << " at "
                         << result.worst_entry;
}

// Reference implementation of Eq. 6 written directly at the Matrix
// level (no autograd), used to pin the composite op.
Matrix Eq6Reference(const Matrix& u_raw, const Matrix& v_raw, double tau) {
  const Matrix u = RowNormalize(u_raw);
  const Matrix v = RowNormalize(v_raw);
  const int n = u.rows();
  const int d = u.cols();
  Matrix g(n, d, 0.0);
  for (int i = 0; i < n; ++i) {
    std::vector<double> w(n, 0.0);
    for (int j = 0; j < n; ++j) {
      if (j == i) continue;
      double dot = 0.0;
      for (int k = 0; k < d; ++k) dot += u(i, k) * u(j, k);
      w[j] = std::exp(dot / tau);
    }
    double pos_dot = 0.0;
    for (int k = 0; k < d; ++k) pos_dot += u(i, k) * v(i, k);
    // Z includes the positive term (see gradient_features.h).
    double z = std::exp(pos_dot / tau);
    for (int j = 0; j < n; ++j) z += w[j];
    const double pos_coeff = (1.0 - std::exp(pos_dot / tau) / z) / tau;
    for (int k = 0; k < d; ++k) g(i, k) += pos_coeff * v(i, k);
    for (int j = 0; j < n; ++j) {
      if (j == i) continue;
      const double coeff = w[j] / z / tau;
      for (int k = 0; k < d; ++k) g(i, k) -= coeff * u(j, k);
    }
  }
  return g;
}

TEST(GradientFeaturesTest, MatchesEq6Reference) {
  Rng rng(1);
  const Matrix u = Matrix::RandomNormal(6, 4, rng);
  const Matrix v = Matrix::RandomNormal(6, 4, rng);
  const Matrix composite =
      InfoNceGradientFeatures(Variable(u), Variable(v), 0.5).value();
  EXPECT_TRUE(AllClose(composite, Eq6Reference(u, v, 0.5), 1e-10));
}

TEST(GradientFeaturesTest, MatchesReferenceAcrossTemperatures) {
  Rng rng(2);
  const Matrix u = Matrix::RandomNormal(5, 3, rng);
  const Matrix v = Matrix::RandomNormal(5, 3, rng);
  for (double tau : {0.1, 0.5, 1.0, 2.0}) {
    const Matrix composite =
        InfoNceGradientFeatures(Variable(u), Variable(v), tau).value();
    EXPECT_TRUE(AllClose(composite, Eq6Reference(u, v, tau), 1e-9))
        << "tau = " << tau;
  }
}

TEST(GradientFeaturesTest, ScaleInvariantInInputs) {
  // Eq. 6 acts on the unit sphere, so rescaling u or v must not change g.
  Rng rng(3);
  const Matrix u = Matrix::RandomNormal(5, 3, rng);
  const Matrix v = Matrix::RandomNormal(5, 3, rng);
  const Matrix g1 =
      InfoNceGradientFeatures(Variable(u), Variable(v), 0.5).value();
  const Matrix g2 =
      InfoNceGradientFeatures(Variable(u * 4.0), Variable(v * 0.25), 0.5)
          .value();
  EXPECT_TRUE(AllClose(g1, g2, 1e-10));
}

TEST(GradientFeaturesTest, PaperObservationOne) {
  // "For positive samples, if their similarity is low, the gradient
  // w.r.t. the samples is large": the positive pull coefficient
  // (1 − exp(p)/Z)/τ grows as the positive pair misaligns.
  Matrix u{{1, 0}, {0, 1}, {-1, 0}};
  Matrix v_aligned = u;
  Matrix v_rotated{{0, 1}, {1, 0}, {0, -1}};  // orthogonal positives
  const Matrix g_aligned =
      InfoNceGradientFeatures(Variable(u), Variable(v_aligned), 0.5).value();
  const Matrix g_rotated =
      InfoNceGradientFeatures(Variable(u), Variable(v_rotated), 0.5).value();
  EXPECT_GT(g_rotated.FrobeniusNorm(), g_aligned.FrobeniusNorm());
}

TEST(GradientFeaturesTest, PaperObservationTwo) {
  // "For negative samples with large similarity the gradient magnitude
  // is significant": clustered within-view samples yield larger
  // negative terms than well-spread ones.
  Matrix clustered{{1, 0}, {0.99, 0.14}, {0.98, -0.2}};
  Matrix spread{{1, 0}, {-0.5, 0.87}, {-0.5, -0.87}};
  const Matrix v{{1, 0}, {0, 1}, {-1, 0}};
  const Matrix g_clustered =
      InfoNceGradientFeatures(Variable(clustered), Variable(v), 0.5).value();
  const Matrix g_spread =
      InfoNceGradientFeatures(Variable(spread), Variable(v), 0.5).value();
  EXPECT_GT(g_clustered.FrobeniusNorm(), g_spread.FrobeniusNorm());
}

TEST(GradientFeaturesTest, DifferentiableGradCheck) {
  // Backprop through the gradient map itself (the property the whole
  // method relies on).
  ExpectGradOk(
      [](const VarList& in) {
        return ag::Mean(
            ag::Square(InfoNceGradientFeatures(in[0], in[1], 0.5)));
      },
      {Param(4, 3, 4), Param(4, 3, 5)}, 1e-4);
}

TEST(GradientFeaturesTest, JsdVariantGradCheckAndShape) {
  Variable u = Param(4, 3, 6);
  Variable v = Param(4, 3, 7);
  Variable g = JsdGradientFeatures(u, v);
  EXPECT_EQ(g.rows(), 4);
  EXPECT_EQ(g.cols(), 3);
  ExpectGradOk(
      [](const VarList& in) {
        return ag::Mean(ag::Square(JsdGradientFeatures(in[0], in[1])));
      },
      {Param(4, 3, 8), Param(4, 3, 9)}, 1e-4);
}

TEST(GradientFeaturesTest, JsdMatchesManualDerivative) {
  // Verify the JSD closed form against the autograd derivative of the
  // JSD loss with respect to u (per-anchor term only; negatives of
  // other anchors flow through v, not u, in JsdLoss's critic s = u v^T).
  Rng rng(10);
  const Matrix u_val = Matrix::RandomNormal(5, 3, rng);
  const Matrix v_val = Matrix::RandomNormal(5, 3, rng);
  Variable u(u_val, true);
  Variable v(v_val);  // constant
  u.ZeroGrad();
  Backward(JsdLoss(u, v));
  const Matrix analytic =
      JsdGradientFeatures(Variable(u_val), Variable(v_val)).value();
  EXPECT_TRUE(AllClose(u.grad(), analytic, 1e-8));
}

TEST(GradientFeaturesTest, SceVariantZeroAtPerfectAlignment) {
  // SCE gradient features vanish when reconstruction is perfect.
  Variable u = Param(4, 3, 11);
  Variable v(u.value());
  const Matrix g = SceGradientFeatures(u, v).value();
  EXPECT_NEAR(g.FrobeniusNorm(), 0.0, 1e-9);
}

TEST(GradientFeaturesTest, SceVariantGradCheck) {
  ExpectGradOk(
      [](const VarList& in) {
        return ag::Mean(ag::Square(SceGradientFeatures(in[0], in[1])));
      },
      {Param(4, 3, 12), Param(4, 3, 13)}, 1e-4);
}

TEST(GradientFeaturesTest, SceMatchesNumericDerivative) {
  // SCE features = ∂/∂u_i of Σ_i (1 − cos(u_i, v_i))^γ (per-row, so the
  // autograd derivative of the *sum* version, i.e. mean × n).
  Rng rng(14);
  const Matrix u_val = Matrix::RandomNormal(4, 3, rng);
  const Matrix v_val = Matrix::RandomNormal(4, 3, rng);
  Variable u(u_val, true);
  u.ZeroGrad();
  Backward(ag::ScalarMul(SceLoss(u, Variable(v_val), 2.0),
                         static_cast<double>(u_val.rows())));
  const Matrix analytic =
      SceGradientFeatures(Variable(u_val), Variable(v_val), 2.0).value();
  EXPECT_TRUE(AllClose(u.grad(), analytic, 1e-6));
}

TEST(GradientFeaturesTest, DispatchMatchesDirectCalls) {
  Variable u = Param(4, 3, 15);
  Variable v = Param(4, 3, 16);
  EXPECT_TRUE(AllClose(
      GradientFeatures(LossKind::kInfoNce, u, v, 0.5).value(),
      InfoNceGradientFeatures(u, v, 0.5).value()));
  EXPECT_TRUE(AllClose(GradientFeatures(LossKind::kJsd, u, v, 0.5).value(),
                       JsdGradientFeatures(u, v).value()));
  EXPECT_TRUE(AllClose(GradientFeatures(LossKind::kSce, u, v, 0.5).value(),
                       SceGradientFeatures(u, v).value()));
}

// --- Euclidean (Lemma 2) variant -------------------------------------------------

TEST(EuclideanFeaturesTest, MatchesAutogradDerivative) {
  // EuclideanGradientFeatures must equal n × d(InfoNceEuclidean)/du —
  // including the cross terms where u_i acts as another anchor's
  // negative (InfoNceEuclidean averages over n, the features follow the
  // summed loss).
  Rng rng(17);
  const Matrix u_val = Matrix::RandomNormal(5, 3, rng, 0.0, 0.7);
  const Matrix v_val = u_val + Matrix::RandomNormal(5, 3, rng, 0.0, 0.1);
  Variable u(u_val, true);
  u.ZeroGrad();
  Backward(ag::ScalarMul(InfoNceEuclidean(u, Variable(v_val)),
                         static_cast<double>(u_val.rows())));
  const Matrix manual = EuclideanGradientFeatures(u_val, v_val);
  EXPECT_TRUE(AllClose(u.grad(), manual, 1e-8));
}

TEST(EuclideanFeaturesTest, Lemma2ChainRule) {
  // Lemma 2: for a linear encoder U = X W, the weight update satisfies
  // dL/dW = Σ_i x_i g_{u_i}^T (+ the view-2 counterpart). Verify the
  // view-1 half with a constant view 2.
  Rng rng(18);
  const Matrix x = Matrix::RandomNormal(5, 4, rng);
  const Matrix w_val = Matrix::RandomNormal(4, 3, rng);
  const Matrix v_val = Matrix::RandomNormal(5, 3, rng);
  Variable w(w_val, true);
  w.ZeroGrad();
  Variable u = ag::MatMul(Variable(x), w);
  Backward(ag::ScalarMul(InfoNceEuclidean(u, Variable(v_val)), 5.0));
  const Matrix g = EuclideanGradientFeatures(MatMul(x, w_val), v_val);
  // dL/dW = X^T G.
  EXPECT_TRUE(AllClose(w.grad(), MatMulTransA(x, g), 1e-8));
}

// --- GradGclLoss (Eq. 18) ---------------------------------------------------------

TEST(GradGclLossTest, WeightZeroIsBackboneLoss) {
  GradGclConfig config;
  config.weight = 0.0;
  GradGclLoss loss(config);
  TwoViewBatch views{Param(5, 4, 19), Param(5, 4, 20)};
  EXPECT_NEAR(loss(views).scalar(),
              InfoNce(views.u, views.u_prime, config.tau).scalar(), 1e-12);
}

TEST(GradGclLossTest, WeightOneIsGradientLoss) {
  GradGclConfig config;
  config.weight = 1.0;
  GradGclLoss loss(config);
  TwoViewBatch views{Param(5, 4, 21), Param(5, 4, 22)};
  EXPECT_NEAR(loss(views).scalar(), loss.GradientLoss(views).scalar(),
              1e-12);
}

TEST(GradGclLossTest, MidWeightIsConvexCombination) {
  GradGclConfig config;
  config.weight = 0.3;
  GradGclLoss loss(config);
  TwoViewBatch views{Param(5, 4, 23), Param(5, 4, 24)};
  const double combined = loss(views).scalar();
  const double lf = loss.RepresentationLoss(views).scalar();
  const double lg = loss.GradientLoss(views).scalar();
  EXPECT_NEAR(combined, 0.7 * lf + 0.3 * lg, 1e-10);
}

TEST(GradGclLossTest, FullObjectiveGradCheck) {
  GradGclConfig config;
  config.weight = 0.5;
  GradGclLoss loss(config);
  ExpectGradOk(
      [&loss](const VarList& in) {
        TwoViewBatch views{in[0], in[1]};
        return loss(views);
      },
      {Param(4, 3, 25), Param(4, 3, 26)}, 1e-4);
}

TEST(GradGclLossTest, GradientLossIsFiniteAndPositive) {
  GradGclConfig config;
  config.weight = 1.0;
  GradGclLoss loss(config);
  TwoViewBatch views{Param(6, 4, 27), Param(6, 4, 28)};
  const Variable lg = loss.GradientLoss(views);
  EXPECT_TRUE(lg.value().AllFinite());
}

TEST(GradGclLossTest, DetachFeaturesStopsBackprop) {
  GradGclConfig config;
  config.weight = 1.0;
  config.detach_features = true;
  GradGclLoss loss(config);
  Variable u = Param(5, 4, 29);
  Variable v = Param(5, 4, 30);
  u.ZeroGrad();
  v.ZeroGrad();
  TwoViewBatch views{u, v};
  Backward(loss(views));
  EXPECT_DOUBLE_EQ(u.grad().FrobeniusNorm(), 0.0);
  EXPECT_DOUBLE_EQ(v.grad().FrobeniusNorm(), 0.0);
}

TEST(GradGclLossDeathTest, InvalidConfigAborts) {
  GradGclConfig bad_weight;
  bad_weight.weight = 1.5;
  EXPECT_DEATH(GradGclLoss{bad_weight}, "GRADGCL_CHECK");
  GradGclConfig bad_tau;
  bad_tau.tau = 0.0;
  EXPECT_DEATH(GradGclLoss{bad_tau}, "GRADGCL_CHECK");
}

// The combined objective must stay finite and gradcheck-clean over the
// weight grid used by the Fig. 8–10 sweeps.
class WeightSweep : public ::testing::TestWithParam<double> {};

TEST_P(WeightSweep, ObjectiveFiniteAndDifferentiable) {
  GradGclConfig config;
  config.weight = GetParam();
  GradGclLoss loss(config);
  Variable u = Param(4, 3, 31);
  Variable v = Param(4, 3, 32);
  u.ZeroGrad();
  v.ZeroGrad();
  TwoViewBatch views{u, v};
  Variable l = loss(views);
  EXPECT_TRUE(l.value().AllFinite());
  Backward(l);
  EXPECT_TRUE(u.grad().AllFinite());
  EXPECT_TRUE(v.grad().AllFinite());
}

INSTANTIATE_TEST_SUITE_P(Weights, WeightSweep,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75, 0.9,
                                           1.0));

}  // namespace
}  // namespace gradgcl
