// train_fg_inram: GraphCL(f+g) trained by TrainGraphSsl on an in-RAM
// PROTEINS-sim dataset, one training thread, intra-op pool pinned to 1
// thread. At this model size the cost model keeps the kernels serial
// anyway, and an idle pool parked on other cores only exposes the step
// to the host's scheduler.
//
// A short warm-up run fills the matrix pool and gives the reference
// trajectory. The measured run is one TrainGraphSsl call whose epoch
// count fills the window at the warm-up's speed; its first epochs must
// reproduce the reference bit for bit (same seeds, constant learning
// rate). One long run, not repeated short ones, so the step-time tail
// is drawn from many distinct batches.
//
// Traced, half the window trains untraced (the overhead baseline) and
// half trains the same steps rebuilt from public calls — augmentation
// pair, EncodeTwoViews, ℓ_f, the two Eq. 6 GradientFeatures calls, ℓ_g,
// Backward, Adam — with a running clock attributing every nanosecond of
// the step to one phase. Its trajectory must equal TrainGraphSsl's.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "augment/augment.h"
#include "autograd/ops.h"
#include "common.h"
#include "common/parallel.h"
#include "core/gradient_features.h"
#include "datasets/tu_synthetic.h"
#include "decorators.h"
#include "graph/batch.h"
#include "losses/contrastive.h"
#include "model_config.h"
#include "tensor/pool.h"
#include "train/optimizer.h"
#include "train/scheduler.h"

namespace perfbench {

namespace {

using gradgcl::Graph;
using gradgcl::Variable;

// GraphCL with its augmentation-pair sampler made callable, so the
// step can be rebuilt from public pieces.
class DecomposedGraphCl : public gradgcl::GraphCl {
 public:
  using GraphCl::GraphCl;
  using GraphCl::SampleAugPair;
};

struct Scale {
  int graphs;
  int reference_epochs;  // warm-up run; also the quality_loss run
  int setup_reps;
};

Scale ScaleFor(const Options& options) {
  return options.smoke ? Scale{256, 2, 2} : Scale{2048, 3, 9};
}

gradgcl::TrainOptions RunOptions(const Options& options, int epochs) {
  gradgcl::TrainOptions train;
  train.epochs = epochs;
  train.batch_size = kBatchSize;
  train.seed = TrainSeed(options.seed);
  return train;
}

struct Run {
  std::vector<double> losses;       // per optimizer step
  std::vector<double> step_us;      // per optimizer step but the first
  std::vector<double> epoch_rates;  // graphs/s of each epoch
  double seconds = 0.0;
  double last_epoch_loss = 0.0;
};

// One TrainGraphSsl run through the step-stamping model decorator.
Run TrainUntraced(const std::vector<Graph>& data, const Options& options,
                  int epochs) {
  gradgcl::Rng init(kModelSeed);
  StepLog log(/*traced=*/false, 1 << 14);
  TimedModel model(std::make_unique<gradgcl::GraphCl>(
                       BenchModelConfig(data[0].feature_dim()), init),
                   &log);
  Run run;
  const int64_t t0 = NowNs();
  const std::vector<gradgcl::EpochStats> history = TrainGraphSsl(
      model, data, RunOptions(options, epochs),
      [&](const gradgcl::EpochStats& e) {
        run.epoch_rates.push_back(static_cast<double>(data.size()) /
                                  e.seconds);
      });
  run.seconds = static_cast<double>(NowNs() - t0) * 1e-9;
  run.losses = log.batch_losses();
  run.last_epoch_loss = history.back().loss;
  // The first step also pays for the optimizer's construction; like the
  // data-parallel workload, latency samples start at the second step.
  const std::vector<StepRecord>& steps = log.steps();
  for (size_t k = 1; k < steps.size(); ++k) {
    run.step_us.push_back(
        static_cast<double>(steps[k].end_ns - steps[k - 1].end_ns) * 1e-3);
  }
  return run;
}

// Accumulated phase times (ns) of traced steps.
struct Phases {
  double encode = 0, augment = 0, make_batch = 0, loss_f = 0,
         grad_features = 0, loss_g = 0, backward = 0, optimizer = 0,
         other = 0, replay = 0;
  std::vector<double> step_ms;
  gradgcl::PoolStats pool;  // step allocations, replay excluded
};

gradgcl::PoolStats Minus(const gradgcl::PoolStats& a,
                         const gradgcl::PoolStats& b) {
  gradgcl::PoolStats d;
  d.heap_allocs = a.heap_allocs - b.heap_allocs;
  d.heap_bytes = a.heap_bytes - b.heap_bytes;
  d.pool_hits = a.pool_hits - b.pool_hits;
  d.acquires = a.acquires - b.acquires;
  return d;
}

gradgcl::PoolStats Plus(const gradgcl::PoolStats& a,
                        const gradgcl::PoolStats& b) {
  gradgcl::PoolStats d;
  d.heap_allocs = a.heap_allocs + b.heap_allocs;
  d.heap_bytes = a.heap_bytes + b.heap_bytes;
  d.pool_hits = a.pool_hits + b.pool_hits;
  d.acquires = a.acquires + b.acquires;
  return d;
}

// TrainGraphSsl's loop, step for step, with GraphCl::BatchLoss and
// GradGclLoss::operator() inlined as their public calls. Returns the
// per-step losses.
std::vector<double> TrainTraced(const std::vector<Graph>& data,
                                const Options& options, int epochs,
                                Phases* phases) {
  gradgcl::Rng init(kModelSeed);
  DecomposedGraphCl model(BenchModelConfig(data[0].feature_dim()), init);
  const gradgcl::GraphClConfig& config = model.config();
  const gradgcl::GradGclConfig& loss_config = config.grad_gcl;
  const double a = loss_config.weight;
  const gradgcl::TrainOptions train = RunOptions(options, epochs);
  gradgcl::Adam optimizer(model.parameters(), train.lr, 0.9, 0.999, 1e-8,
                          train.weight_decay);
  gradgcl::Rng rng(train.seed);
  gradgcl::MatrixPool& pool = gradgcl::MatrixPool::Instance();

  std::vector<double> losses;
  gradgcl::PoolStats replay_pool;
  const gradgcl::PoolStats pool_before = pool.stats();
  for (int epoch = 0; epoch < train.epochs; ++epoch) {
    optimizer.set_lr(gradgcl::ScheduledLr(train.schedule, train.lr, epoch,
                                          train.epochs));
    const std::vector<std::vector<int>> plan = gradgcl::MakeMiniBatches(
        static_cast<int>(data.size()), train.batch_size, rng);
    for (size_t b = 0; b < plan.size(); ++b) {
      const int64_t t0 = NowNs();
      int64_t mark = t0;
      const auto lap = [&mark](double* phase) {
        const int64_t now = NowNs();
        *phase += static_cast<double>(now - mark);
        mark = now;
      };
      int64_t replay_ns = 0;
      {
        gradgcl::Rng batch_rng(gradgcl::BatchStreamSeed(
            train.seed, epoch, static_cast<int64_t>(b)));
        gradgcl::TapeScope tape;
        optimizer.ZeroGrad();
        lap(&phases->optimizer);
        const auto [kind1, kind2] = model.SampleAugPair(batch_rng);
        lap(&phases->other);
        const int64_t replay_start = mark;
        {
          // Not part of the step: the augmentation and batching half of
          // EncodeTwoViews, replayed on a copy of the batch Rng.
          const gradgcl::PoolStats replay_before = pool.stats();
          gradgcl::Rng replay_rng = batch_rng;
          std::vector<Graph> view1, view2;
          view1.reserve(plan[b].size());
          view2.reserve(plan[b].size());
          for (int idx : plan[b]) {
            view1.push_back(gradgcl::Augment(data[idx], kind1,
                                             config.aug_strength, replay_rng));
            view2.push_back(gradgcl::Augment(data[idx], kind2,
                                             config.aug_strength, replay_rng));
          }
          lap(&phases->augment);
          const gradgcl::GraphBatch batch1 = gradgcl::MakeBatch(view1);
          const gradgcl::GraphBatch batch2 = gradgcl::MakeBatch(view2);
          lap(&phases->make_batch);
          replay_pool = Plus(replay_pool, Minus(pool.stats(), replay_before));
        }
        lap(&phases->replay);
        replay_ns = mark - replay_start;
        const gradgcl::TwoViewBatch views =
            model.EncodeTwoViews(data, plan[b], kind1, kind2, batch_rng);
        lap(&phases->encode);
        const Variable lf = gradgcl::ContrastiveLoss(
            loss_config.loss, views.u, views.u_prime, loss_config.tau);
        lap(&phases->loss_f);
        const Variable g = gradgcl::GradientFeatures(
            loss_config.loss, views.u, views.u_prime, loss_config.tau);
        const Variable g_prime = gradgcl::GradientFeatures(
            loss_config.loss, views.u_prime, views.u, loss_config.tau);
        lap(&phases->grad_features);
        const Variable lg = gradgcl::InfoNce(g, g_prime, loss_config.tau);
        lap(&phases->loss_g);
        const Variable loss = gradgcl::ag::Add(
            gradgcl::ag::ScalarMul(lf, 1.0 - a), gradgcl::ag::ScalarMul(lg, a));
        lap(&phases->other);
        gradgcl::Backward(loss);
        lap(&phases->backward);
        losses.push_back(loss.scalar());
        optimizer.Step();
        model.PostStep();
        lap(&phases->optimizer);
      }
      lap(&phases->other);  // tape and activations released
      phases->step_ms.push_back(static_cast<double>(mark - t0 - replay_ns) *
                                1e-6);
    }
  }
  phases->pool = Minus(Minus(pool.stats(), pool_before), replay_pool);
  return losses;
}

// Steps of the reference (a prefix of `losses`) whose loss differs
// bitwise; missing steps count too.
int64_t Mismatches(const std::vector<double>& losses,
                   const std::vector<double>& reference) {
  int64_t bad = 0;
  for (size_t i = 0; i < reference.size(); ++i) {
    if (i >= losses.size() ||
        std::memcmp(&losses[i], &reference[i], sizeof(double)) != 0) {
      ++bad;
    }
  }
  return bad;
}

}  // namespace

void RunTrainInRam(const Options& options, Report* report) {
  const Scale scale = ScaleFor(options);
  gradgcl::SetNumThreads(1);

  std::unique_ptr<std::vector<Graph>> data;
  const double setup_s = MedianSetup<std::unique_ptr<std::vector<Graph>>>(
      scale.setup_reps, [] {},
      [&] {
        gradgcl::TuProfile profile = gradgcl::TuProfileByName("PROTEINS");
        profile.num_graphs = scale.graphs;
        return std::make_unique<std::vector<Graph>>(
            gradgcl::GenerateTuDataset(profile, DataSeed(options.seed)));
      },
      &data);
  report->Set("setup_s", setup_s);
  report->Set("datasets.generate_s", setup_s);

  // Warm-up run: fills the matrix pool, and its trajectory is the
  // reference the measured runs must start with.
  const Run warm = TrainUntraced(*data, options, scale.reference_epochs);
  std::vector<double> reference = warm.losses;
  bool finite = true;
  for (double l : reference) finite = finite && std::isfinite(l);
  report->Gate(finite, "train_fg_inram: non-finite loss");
  if (options.corrupt == Corrupt::kTrainTrajectory) {
    uint64_t bits = 0;
    std::memcpy(&bits, &reference[reference.size() / 2], sizeof(bits));
    bits ^= 1;
    std::memcpy(&reference[reference.size() / 2], &bits, sizeof(bits));
  }
  report->Set("quality_loss", warm.last_epoch_loss);
  // Peak memory of set-up and the warm-up epochs, which the measured run
  // repeats batch for batch. Not taken at the end: the matrix pool caches
  // power-of-two buckets, and the first rare batch of a long run that
  // crosses a bucket edge adds a second set of buffers for good, so the
  // end-of-run peak read 37, 50 or 63 MiB by seed and run length.
  report->Set("peak_rss_mb", PeakRssMb());

  const double window = options.trace ? options.seconds / 2 : options.seconds;
  const int epochs = std::max(
      scale.reference_epochs,
      static_cast<int>(std::lround(window * Median(warm.epoch_rates) /
                                   static_cast<double>(data->size()))));
  const Run run = TrainUntraced(*data, options, epochs);
  const int64_t bad = Mismatches(run.losses, reference);
  report->Gate(bad == 0,
               "train_fg_inram: trajectory differs from the reference", bad);
  report->attempted += static_cast<int64_t>(run.losses.size());
  // The rate is a median over epochs, so a burst of outside load on the
  // host moves a minority of epochs, not the result.
  const double throughput = Median(run.epoch_rates);
  report->Set("throughput_per_s", throughput);
  report->Set("latency_p50_us", SlicedPercentile(run.step_us, 50.0));
  std::printf("train_fg_inram: %d epochs, %.1f graphs/s, %zu step samples, "
              "p90 %.0f us, p99 %.0f us\n",
              epochs, throughput, run.step_us.size(),
              Percentile(run.step_us, 90.0), Percentile(run.step_us, 99.0));
  if (!options.trace) return;

  Phases phases;
  const std::vector<double> losses = TrainTraced(*data, options, epochs, &phases);
  const int64_t traced_bad = Mismatches(losses, reference);
  report->Gate(traced_bad == 0,
               "train_fg_inram: decomposed step trajectory differs from "
               "TrainGraphSsl",
               traced_bad);
  report->attempted += static_cast<int64_t>(losses.size());
  const double steps = static_cast<double>(phases.step_ms.size());
  const auto per_step_ms = [&](double ns) { return ns * 1e-6 / steps; };
  const double step_ms = Mean(phases.step_ms);
  const double untraced_step_ms =
      run.seconds * 1e3 / static_cast<double>(run.losses.size());
  report->Set("train.step_ms", step_ms);
  report->Set("train.step_ms.p50", Percentile(phases.step_ms, 50.0));
  report->Set("train.step_ms.p99", Percentile(phases.step_ms, 99.0));
  report->Set("models.encode_views_ms", per_step_ms(phases.encode));
  report->Set("augment.views_ms", per_step_ms(phases.augment));
  report->Set("graph.make_batch_ms", per_step_ms(phases.make_batch));
  report->Set("losses.loss_f_ms", per_step_ms(phases.loss_f));
  report->Set("core.grad_features_ms", per_step_ms(phases.grad_features));
  report->Set("losses.loss_g_ms", per_step_ms(phases.loss_g));
  report->Set("autograd.backward_ms", per_step_ms(phases.backward));
  report->Set("train.optimizer_ms", per_step_ms(phases.optimizer));
  report->Set("train.unattributed_ms", per_step_ms(phases.other));
  report->Set("tensor.heap_allocs_per_step",
              static_cast<double>(phases.pool.heap_allocs) / steps);
  report->Set("tensor.pool_hits_per_step",
              static_cast<double>(phases.pool.pool_hits) / steps);
  report->Set("obs.trace_overhead_pct",
              (step_ms - untraced_step_ms) / untraced_step_ms * 100.0);
  std::printf("train_fg_inram traced: %.0f steps, step %.3f ms (untraced "
              "%.3f ms), unattributed %.1f%%\n",
              steps, step_ms, untraced_step_ms,
              per_step_ms(phases.other) / step_ms * 100.0);
}

}  // namespace perfbench
