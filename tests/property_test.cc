// Property-based suites: invariants that must hold over swept inputs —
// permutation invariance of graph-level machinery, scale invariance of
// the normalised losses, rank behaviour from the paper's Lemmas 2–3,
// and mutual-information bound sanity (Lemma 1 / Eq. 3).

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "augment/augment.h"
#include "core/grad_gcl_loss.h"
#include "datasets/tu_synthetic.h"
#include "graph/batch.h"
#include "models/wl_kernel.h"
#include "nn/encoders.h"
#include "tensor/linalg.h"
#include "tensor/ops.h"

namespace gradgcl {
namespace {

// Relabels a graph's nodes by `perm` (new id of old node i = perm[i]).
Graph PermuteGraph(const Graph& g, const std::vector<int>& perm) {
  Graph out;
  out.num_nodes = g.num_nodes;
  out.label = g.label;
  out.features = Matrix(g.num_nodes, g.feature_dim());
  for (int i = 0; i < g.num_nodes; ++i) {
    for (int j = 0; j < g.feature_dim(); ++j) {
      out.features(perm[i], j) = g.features(i, j);
    }
  }
  for (const auto& [u, v] : g.edges) {
    out.edges.emplace_back(perm[u], perm[v]);
  }
  return out;
}

Graph RandomGraph(int n, double p, uint64_t seed) {
  Rng rng(seed);
  Graph g;
  g.num_nodes = n;
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.Bernoulli(p)) g.edges.emplace_back(u, v);
    }
  }
  g.features = Matrix::RandomNormal(n, 5, rng);
  g.label = 0;
  return g;
}

// --- Permutation invariance -----------------------------------------------------

class PermutationSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PermutationSweep, EncoderReadoutIsPermutationInvariant) {
  const Graph g = RandomGraph(12, 0.3, GetParam());
  Rng perm_rng(GetParam() + 100);
  const std::vector<int> perm = perm_rng.Permutation(g.num_nodes);
  const Graph permuted = PermuteGraph(g, perm);

  Rng enc_rng(7);
  EncoderConfig config;
  config.in_dim = 5;
  config.hidden_dim = 8;
  config.out_dim = 8;
  GraphEncoder encoder(config, enc_rng);

  const Matrix e1 = encoder.ForwardGraphs(MakeBatch({g})).value();
  const Matrix e2 = encoder.ForwardGraphs(MakeBatch({permuted})).value();
  EXPECT_TRUE(AllClose(e1, e2, 1e-8));
}

TEST_P(PermutationSweep, WlFeaturesArePermutationInvariant) {
  Graph g = RandomGraph(12, 0.3, GetParam());
  // WL initial labels read the argmax feature; make them discrete.
  for (int i = 0; i < g.features.size(); ++i) {
    g.features.at_flat(i) = std::round(g.features.at_flat(i));
  }
  Rng perm_rng(GetParam() + 200);
  const Graph permuted =
      PermuteGraph(g, perm_rng.Permutation(g.num_nodes));
  const Matrix f = WlFeatures({g, permuted}, {3, 128});
  EXPECT_TRUE(AllClose(f.Row(0), f.Row(1), 1e-12));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PermutationSweep,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 4ULL, 5ULL));

// --- Batch-order equivariance -----------------------------------------------------

TEST(BatchOrderProperty, GraphEmbeddingsIndependentOfBatchOrder) {
  TuProfile profile = TuProfileByName("MUTAG");
  profile.num_graphs = 8;
  const std::vector<Graph> data = GenerateTuDataset(profile, 31);
  Rng rng(9);
  EncoderConfig config;
  config.in_dim = profile.feature_dim;
  config.hidden_dim = 8;
  config.out_dim = 8;
  GraphEncoder encoder(config, rng);

  const Matrix forward =
      encoder.ForwardGraphs(MakeBatch(data, {0, 1, 2, 3})).value();
  const Matrix reversed =
      encoder.ForwardGraphs(MakeBatch(data, {3, 2, 1, 0})).value();
  for (int k = 0; k < 4; ++k) {
    EXPECT_TRUE(AllClose(forward.Row(k), reversed.Row(3 - k), 1e-9));
  }
}

// --- Loss invariances over sweeps ------------------------------------------------

struct LossSweepCase {
  int n;
  int d;
  double tau;
};

class LossInvarianceSweep : public ::testing::TestWithParam<LossSweepCase> {};

TEST_P(LossInvarianceSweep, InfoNceScaleInvariantAndBounded) {
  const auto [n, d, tau] = GetParam();
  Rng rng(41);
  const Matrix u = Matrix::RandomNormal(n, d, rng);
  const Matrix v = Matrix::RandomNormal(n, d, rng);
  const double base = InfoNce(Variable(u), Variable(v), tau).scalar();
  const double scaled =
      InfoNce(Variable(u * 3.0), Variable(v * 0.2), tau).scalar();
  EXPECT_NEAR(base, scaled, 1e-9);
  // Loss is bounded: |pos|, |negs| <= 1/tau in the exponent.
  EXPECT_LT(std::abs(base), 2.0 / tau + std::log(n) + 1.0);
}

TEST_P(LossInvarianceSweep, GradientFeaturesMirrorSymmetry) {
  // Exchanging the two views maps g to g' (the features treat u as
  // anchor): check both directions produce finite, distinct features.
  const auto [n, d, tau] = GetParam();
  Rng rng(43);
  Variable u(Matrix::RandomNormal(n, d, rng));
  Variable v(Matrix::RandomNormal(n, d, rng));
  const Matrix g = InfoNceGradientFeatures(u, v, tau).value();
  const Matrix g_prime = InfoNceGradientFeatures(v, u, tau).value();
  EXPECT_TRUE(g.AllFinite());
  EXPECT_TRUE(g_prime.AllFinite());
  EXPECT_EQ(g.rows(), n);
  EXPECT_EQ(g_prime.rows(), n);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LossInvarianceSweep,
    ::testing::Values(LossSweepCase{3, 4, 0.5}, LossSweepCase{8, 2, 0.5},
                      LossSweepCase{5, 16, 0.2}, LossSweepCase{16, 8, 1.0},
                      LossSweepCase{4, 4, 2.0}));

// --- Lemma 1 (Eq. 3): InfoNCE bounds log N --------------------------------------

class MiBoundSweep : public ::testing::TestWithParam<int> {};

TEST_P(MiBoundSweep, InfoNceLowerBoundIsNonTrivialForAlignedViews) {
  // -loss + log(N) estimates MI; for perfectly aligned distinct views
  // the estimate must be positive (there IS mutual information).
  const int n = GetParam();
  Rng rng(47);
  const Matrix u = Matrix::RandomNormal(n, 6, rng);
  const double loss = InfoNce(Variable(u), Variable(u), 0.5).scalar();
  EXPECT_GT(-loss + std::log(n), 0.0);
}

TEST_P(MiBoundSweep, IndependentViewsEstimateNearZero) {
  const int n = GetParam();
  Rng rng(53);
  const Matrix u = Matrix::RandomNormal(n, 6, rng);
  const Matrix v = Matrix::RandomNormal(n, 6, rng);
  const double estimate =
      -InfoNce(Variable(u), Variable(v), 0.5).scalar() + std::log(n);
  // Independent views carry no MI; the estimator stays near/below the
  // aligned-view estimate and far from log N.
  const double aligned_estimate =
      -InfoNce(Variable(u), Variable(u), 0.5).scalar() + std::log(n);
  EXPECT_LT(estimate, aligned_estimate);
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, MiBoundSweep,
                         ::testing::Values(4, 8, 16, 32));

// --- Lemmas 2–3: gradient contrast and rank ---------------------------------------

TEST(RankProperty, AlignedGradientsSpanFullBatchRank) {
  // Lemma 3's mechanism: G = Σ_i (g_i + g'_i) x_i^T has rank N when the
  // per-sample gradient sums are linearly independent. Build such a
  // configuration explicitly and verify via singular values.
  const int n = 4, d = 6;
  Rng rng(59);
  // Orthogonal-ish gradient directions.
  Matrix g = Matrix::RandomNormal(n, d, rng);
  Matrix x = Matrix::RandomNormal(n, d, rng);
  Matrix big_g(d, d, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int r = 0; r < d; ++r) {
      for (int c = 0; c < d; ++c) {
        big_g(r, c) += 2.0 * g(i, r) * x(i, c);  // g_i = g'_i (aligned)
      }
    }
  }
  std::vector<double> sv = SingularValues(big_g);
  // Jacobi-on-Gram numerics leave "zero" singular values around
  // sqrt(eps)·max, so threshold at 1e-5 relative.
  EXPECT_EQ(RankAtThreshold(sv, 1e-5), n);
}

TEST(RankProperty, CollinearGradientsCollapseRank) {
  // If all samples share one gradient direction, G is rank 1 — the
  // degenerate case gradient contrast is designed to prevent.
  const int n = 4, d = 6;
  Rng rng(61);
  Matrix direction = Matrix::RandomNormal(1, d, rng);
  Matrix x = Matrix::RandomNormal(n, d, rng);
  Matrix big_g(d, d, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int r = 0; r < d; ++r) {
      for (int c = 0; c < d; ++c) {
        big_g(r, c) += direction(0, r) * x(i, c);
      }
    }
  }
  std::vector<double> sv = SingularValues(big_g);
  EXPECT_EQ(RankAtThreshold(sv, 1e-5), 1);
}

TEST(RankProperty, GradientLossDiversifiesGradientDirections) {
  // Train a toy linear map with (a) pure InfoNCE and (b) gradient-
  // contrast-regularised InfoNCE; the gradient features of the latter
  // must end up with higher effective rank (the Fig. 5 mechanism).
  Rng rng(67);
  const Matrix x1 = Matrix::RandomNormal(12, 6, rng);
  const Matrix x2 = x1 + Matrix::RandomNormal(12, 6, rng, 0.0, 0.1);

  auto train = [&](double weight) {
    Rng init(71);
    Variable w(Matrix::GlorotUniform(6, 6, init), true);
    GradGclConfig config;
    config.weight = weight;
    GradGclLoss loss(config);
    for (int step = 0; step < 60; ++step) {
      w.ZeroGrad();
      TwoViewBatch views;
      views.u = ag::MatMul(Variable(x1), w);
      views.u_prime = ag::MatMul(Variable(x2), w);
      Backward(loss(views));
      Matrix update = w.grad();
      update *= 0.1;
      Matrix value = w.value();
      value -= update;
      w.set_value(value);
    }
    return MatMul(x1, w.value());
  };

  const double rank_plain = EffectiveRank(CovarianceSpectrum(train(0.0)));
  const double rank_grad = EffectiveRank(CovarianceSpectrum(train(0.7)));
  EXPECT_GT(rank_grad, rank_plain * 0.9);  // never catastrophically worse
}

// --- Augmentation label preservation over all profiles ----------------------------

class DatasetAugmentSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DatasetAugmentSweep, AugmentedGraphsKeepLabelAndValidity) {
  const auto [profile_idx, kind_idx] = GetParam();
  TuProfile profile = PaperTuProfiles()[profile_idx];
  profile.num_graphs = 6;
  const std::vector<Graph> data = GenerateTuDataset(profile, 73);
  const AugmentKind kind = AllAugmentKinds()[kind_idx];
  Rng rng(79);
  for (const Graph& g : data) {
    const Graph aug = Augment(g, kind, 0.2, rng);
    ValidateGraph(aug);
    EXPECT_EQ(aug.label, g.label);
  }
}

INSTANTIATE_TEST_SUITE_P(ProfilesByKinds, DatasetAugmentSweep,
                         ::testing::Combine(::testing::Range(0, 10),
                                            ::testing::Range(0, 4)));

// --- GradGCL objective finiteness across model scales -----------------------------

struct ScaleCase {
  int batch;
  int dim;
};

class ObjectiveScaleSweep : public ::testing::TestWithParam<ScaleCase> {};

TEST_P(ObjectiveScaleSweep, CombinedObjectiveStaysFinite) {
  const auto [batch, dim] = GetParam();
  Rng rng(83);
  GradGclConfig config;
  config.weight = 0.5;
  GradGclLoss loss(config);
  // Adversarially scaled inputs: tiny and huge magnitudes mixed.
  Matrix u = Matrix::RandomNormal(batch, dim, rng, 0.0, 1e-4);
  Matrix v = Matrix::RandomNormal(batch, dim, rng, 0.0, 1e4);
  TwoViewBatch views{Variable(u, true), Variable(v, true)};
  Variable l = loss(views);
  EXPECT_TRUE(l.value().AllFinite());
  Backward(l);
  EXPECT_TRUE(views.u.grad().AllFinite());
  EXPECT_TRUE(views.u_prime.grad().AllFinite());
}

INSTANTIATE_TEST_SUITE_P(Scales, ObjectiveScaleSweep,
                         ::testing::Values(ScaleCase{2, 2}, ScaleCase{4, 16},
                                           ScaleCase{32, 8},
                                           ScaleCase{16, 64}));

}  // namespace
}  // namespace gradgcl
