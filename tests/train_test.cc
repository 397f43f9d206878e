#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "datasets/node_synthetic.h"
#include "datasets/tu_synthetic.h"
#include "models/grace.h"
#include "models/graphcl.h"
#include "train/optimizer.h"
#include "train/trainer.h"

#include "vector_batch_source.h"

namespace gradgcl {
namespace {

// Quadratic bowl: loss = |w - target|^2. Any sane optimiser drives w
// to the target.
double RunOptimizerOnQuadratic(Optimizer& opt, Variable& w,
                               const Matrix& target, int steps) {
  for (int i = 0; i < steps; ++i) {
    opt.ZeroGrad();
    Variable diff = ag::Sub(w, Variable(target));
    Backward(ag::Sum(ag::Square(diff)));
    opt.Step();
  }
  Matrix residual = w.value();
  residual -= target;
  return residual.FrobeniusNorm();
}

TEST(SgdTest, ConvergesOnQuadratic) {
  Rng rng(1);
  Variable w(Matrix::RandomNormal(3, 3, rng), true);
  const Matrix target = Matrix::RandomNormal(3, 3, rng);
  Sgd opt({w}, 0.1);
  EXPECT_LT(RunOptimizerOnQuadratic(opt, w, target, 100), 1e-6);
}

TEST(SgdTest, MomentumAcceleratesConvergence) {
  Rng rng(2);
  const Matrix start = Matrix::RandomNormal(3, 3, rng);
  const Matrix target = Matrix::RandomNormal(3, 3, rng);
  Variable w_plain(start, true);
  Variable w_momentum(start, true);
  Sgd plain({w_plain}, 0.02);
  Sgd momentum({w_momentum}, 0.02, 0.9);
  const double plain_res =
      RunOptimizerOnQuadratic(plain, w_plain, target, 30);
  const double momentum_res =
      RunOptimizerOnQuadratic(momentum, w_momentum, target, 30);
  EXPECT_LT(momentum_res, plain_res);
}

TEST(SgdTest, WeightDecayShrinksWeights) {
  Variable w(Matrix(2, 2, 10.0), true);
  Sgd opt({w}, 0.1, 0.0, 0.5);
  for (int i = 0; i < 50; ++i) {
    opt.ZeroGrad();
    // No data gradient; only decay acts.
    Backward(ag::ScalarMul(ag::Sum(w), 0.0));
    opt.Step();
  }
  EXPECT_LT(std::abs(w.value()(0, 0)), 1.0);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  Rng rng(3);
  Variable w(Matrix::RandomNormal(3, 3, rng), true);
  const Matrix target = Matrix::RandomNormal(3, 3, rng);
  Adam opt({w}, 0.1);
  EXPECT_LT(RunOptimizerOnQuadratic(opt, w, target, 300), 1e-4);
}

TEST(AdamTest, HandlesBadlyScaledGradients) {
  // One coordinate's gradient is 1e4 times the other's; Adam's
  // per-coordinate scaling still converges both.
  Variable w(Matrix{{5.0, 5.0}}, true);
  Adam opt({w}, 0.05);
  for (int i = 0; i < 800; ++i) {
    opt.ZeroGrad();
    Variable scaled = ag::Hadamard(w, Variable(Matrix{{1e4, 1.0}}));
    Backward(ag::Sum(ag::Square(scaled)));
    opt.Step();
  }
  EXPECT_NEAR(w.value()(0, 0), 0.0, 1e-2);
  EXPECT_NEAR(w.value()(0, 1), 0.0, 1e-2);
}

TEST(OptimizerDeathTest, NonParameterInputAborts) {
  Variable constant(Matrix(2, 2, 0.0));  // requires_grad = false
  EXPECT_DEATH(Sgd({constant}, 0.1), "require gradients");
}

TEST(MiniBatchTest, CoversAllIndicesExactlyOnce) {
  Rng rng(4);
  const std::vector<std::vector<int>> batches = MakeMiniBatches(23, 5, rng);
  std::set<int> seen;
  int total = 0;
  for (const auto& batch : batches) {
    EXPECT_GE(batch.size(), 2u);
    total += static_cast<int>(batch.size());
    seen.insert(batch.begin(), batch.end());
  }
  EXPECT_EQ(total, 23);
  EXPECT_EQ(seen.size(), 23u);
}

TEST(MiniBatchTest, TrailingSingletonFolded) {
  Rng rng(5);
  // 11 items at batch size 5: 5 + 5 + 1 -> last singleton folds in.
  const std::vector<std::vector<int>> batches = MakeMiniBatches(11, 5, rng);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[1].size(), 6u);
}

TEST(TrainerTest, LossDecreasesOnTinyDataset) {
  TuProfile profile = TuProfileByName("MUTAG");
  profile.num_graphs = 48;
  const std::vector<Graph> data = GenerateTuDataset(profile, 2);

  Rng rng(6);
  GraphClConfig config;
  config.encoder.in_dim = profile.feature_dim;
  config.encoder.hidden_dim = 8;
  config.encoder.out_dim = 8;
  config.proj_dim = 8;
  GraphCl model(config, rng);

  TrainOptions options;
  options.epochs = 20;
  options.batch_size = 16;
  options.lr = 0.02;
  const std::vector<EpochStats> history =
      TrainGraphSsl(model, data, options);
  ASSERT_EQ(history.size(), 20u);
  // Average of the last 5 epochs below the average of the first 2.
  double late = 0.0;
  for (int e = 15; e < 20; ++e) late += history[e].loss / 5.0;
  const double early = (history[0].loss + history[1].loss) / 2.0;
  EXPECT_LT(late, early);
  for (const EpochStats& stats : history) {
    EXPECT_TRUE(std::isfinite(stats.loss));
    EXPECT_GE(stats.seconds, 0.0);
  }
}

TEST(TrainerTest, NodeLossDecreasesOnTinyDataset) {
  NodeProfile profile = NodeProfileByName("Cora");
  profile.num_nodes = 60;
  profile.feature_dim = 12;
  const NodeDataset data = GenerateNodeDataset(profile, 9);

  Rng rng(10);
  GraceConfig config;
  config.encoder.kind = EncoderKind::kGcn;
  config.encoder.in_dim = profile.feature_dim;
  config.encoder.hidden_dim = 8;
  config.encoder.out_dim = 8;
  Grace model(config, rng);

  TrainOptions options;
  options.epochs = 25;
  options.lr = 0.02;
  const std::vector<EpochStats> history = TrainNodeSsl(model, data, options);
  double early = (history[0].loss + history[1].loss) / 2.0;
  double late = 0.0;
  for (int e = 20; e < 25; ++e) late += history[e].loss / 5.0;
  EXPECT_LT(late, early);
}

TEST(TrainerTest, SeedReproducesHistoryExactly) {
  TuProfile profile = TuProfileByName("MUTAG");
  profile.num_graphs = 16;
  const std::vector<Graph> data = GenerateTuDataset(profile, 3);

  auto run = [&]() {
    Rng rng(7);
    GraphClConfig config;
    config.encoder.in_dim = profile.feature_dim;
    config.encoder.hidden_dim = 8;
    config.encoder.out_dim = 8;
    GraphCl model(config, rng);
    TrainOptions options;
    options.epochs = 4;
    options.batch_size = 8;
    options.seed = 11;
    return TrainGraphSsl(model, data, options);
  };
  const std::vector<EpochStats> a = run();
  const std::vector<EpochStats> b = run();
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].loss, b[i].loss);
  }
}

TEST(TrainerTest, EpochCallbackInvokedInOrder) {
  TuProfile profile = TuProfileByName("MUTAG");
  profile.num_graphs = 12;
  const std::vector<Graph> data = GenerateTuDataset(profile, 4);
  Rng rng(8);
  GraphClConfig config;
  config.encoder.in_dim = profile.feature_dim;
  config.encoder.hidden_dim = 8;
  config.encoder.out_dim = 8;
  GraphCl model(config, rng);
  TrainOptions options;
  options.epochs = 3;
  std::vector<EpochStats> seen;
  const auto record = [&](const EpochStats& stats) { seen.push_back(stats); };
  // Each epoch is reported once, as it ends: the callback sees exactly
  // the history the trainer returns, in order.
  const auto expect_seen = [&](const std::vector<EpochStats>& history) {
    ASSERT_EQ(seen.size(), 3u);
    ASSERT_EQ(history.size(), 3u);
    for (size_t e = 0; e < seen.size(); ++e) {
      EXPECT_EQ(seen[e].epoch, static_cast<int>(e));
      EXPECT_EQ(seen[e].loss, history[e].loss);
      EXPECT_EQ(seen[e].seconds, history[e].seconds);
    }
  };
  expect_seen(TrainGraphSsl(model, data, options, record));

  seen.clear();
  VectorBatchSource source(data);
  expect_seen(TrainGraphSslStreamed(model, source, options, record));
}

}  // namespace
}  // namespace gradgcl
