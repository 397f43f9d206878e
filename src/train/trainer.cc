#include "train/trainer.h"

#include <cmath>

#include "common/stopwatch.h"
#include "distributed/data_parallel.h"
#include "obs/collapse.h"
#include "obs/trace.h"
#include "tensor/pool.h"

namespace gradgcl {

double ParameterGradNorm(const std::vector<Variable>& params) {
  double sum_sq = 0.0;
  for (const Variable& p : params) {
    const double n = p.grad().FrobeniusNorm();
    sum_sq += n * n;
  }
  return std::sqrt(sum_sq);
}

std::vector<std::vector<int>> MakeMiniBatches(int n, int batch_size,
                                              Rng& rng) {
  GRADGCL_CHECK(n >= 2 && batch_size >= 2);
  std::vector<int> perm = rng.Permutation(n);
  std::vector<std::vector<int>> batches;
  for (int start = 0; start < n; start += batch_size) {
    const int end = std::min(n, start + batch_size);
    batches.emplace_back(perm.begin() + start, perm.begin() + end);
  }
  // Contrastive losses need >= 2 samples: fold a trailing singleton in.
  if (batches.size() >= 2 && batches.back().size() < 2) {
    batches[batches.size() - 2].push_back(batches.back()[0]);
    batches.pop_back();
  }
  return batches;
}

namespace {

// SplitMix64 finalizer (same constants as common/rng.cc's seeder).
uint64_t Mix64(uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

uint64_t BatchStreamSeed(uint64_t seed, int64_t epoch, int64_t batch) {
  // Fold each coordinate through a full avalanche round so adjacent
  // (epoch, batch) pairs land in statistically unrelated streams.
  uint64_t x = Mix64(seed);
  x = Mix64(x ^ static_cast<uint64_t>(epoch));
  x = Mix64(x ^ static_cast<uint64_t>(batch));
  return x;
}

namespace {

// The graph-level loop (distributed/data_parallel.h) on one rank with
// one micro-batch per optimizer step.
dist::DataParallelTrainer OneRank(const TrainOptions& options) {
  dist::DistOptions opt;
  opt.train = options;
  opt.world_size = 1;
  opt.micro_batches_per_step = 1;
  return dist::DataParallelTrainer(opt);
}

}  // namespace

std::vector<EpochStats> TrainGraphSsl(
    GraphSslModel& model, const std::vector<Graph>& dataset,
    const TrainOptions& options,
    const std::function<void(const EpochStats&)>& on_epoch) {
  return OneRank(options).Run(model, dataset, nullptr, on_epoch).history;
}

std::vector<EpochStats> TrainGraphSslStreamed(
    GraphSslModel& model, GraphBatchSource& source,
    const TrainOptions& options,
    const std::function<void(const EpochStats&)>& on_epoch) {
  return OneRank(options)
      .RunStreamed(model, source, nullptr, on_epoch)
      .history;
}

std::vector<EpochStats> TrainNodeSsl(
    NodeSslModel& model, const NodeDataset& dataset,
    const TrainOptions& options,
    const std::function<void(const EpochStats&)>& on_epoch) {
  Adam optimizer(model.parameters(), options.lr, 0.9, 0.999, 1e-8,
                 options.weight_decay);
  Rng rng(options.seed);

  obs::CollapseMonitor& monitor = obs::CollapseMonitor::Instance();
  std::vector<EpochStats> history;
  history.reserve(options.epochs);
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    optimizer.set_lr(
        ScheduledLr(options.schedule, options.lr, epoch, options.epochs));
    Stopwatch watch;
    EpochStats stats;
    {
      obs::TraceScope step_span("train/step");
      monitor.BeginStep(obs::StepContext{epoch, epoch});
      TapeScope tape;  // step-scoped pooling (tensor/pool.h)
      optimizer.ZeroGrad();
      Variable loss = model.EpochLoss(dataset, rng);
      Backward(loss);
      stats.loss = loss.scalar();
      const double grad_norm =
          monitor.enabled() ? ParameterGradNorm(model.parameters()) : 0.0;
      optimizer.Step();
      model.PostStep();
      if (monitor.enabled()) {
        monitor.EndStep(stats.loss, grad_norm, watch.ElapsedSeconds());
      }
    }
    stats.epoch = epoch;
    stats.seconds = watch.ElapsedSeconds();
    if (on_epoch) on_epoch(stats);
    history.push_back(stats);
  }
  return history;
}

}  // namespace gradgcl
