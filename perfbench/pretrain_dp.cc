// pretrain_dp2_stream: the train_fg_inram model pre-trained by
// DataParallelTrainer::RunStreamed on a ZINC-sim corpus in mmap shards.
// Two thread ranks, four micro-batches per optimizer step, one
// PrefetchReader thread per rank, intra-op pool pinned to 1 thread.
//
// A short warm-up run gives the reference trajectory and the speed
// estimate. The measured run starts two ranks once more from the same
// seeds and trains as many steps as fill the window at the warm-up's
// speed; its first steps must reproduce the reference. One long run, not
// repeated short ones: ranks and readers start once, as in real
// pre-training. Repeated 64-step runs put a start-up into every 64
// steps, and the first ~18 steps after each start (new threads not yet
// spread over the cores) had a p90 30% above the rest.
//
// Each rank's model, batch source and comm endpoint are wrapped in the
// bench decorators; a step ends at the model's PostStep.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>

#include "common.h"
#include "common/parallel.h"
#include "corpus.h"
#include "data/prefetch_reader.h"
#include "decorators.h"
#include "distributed/data_parallel.h"
#include "model_config.h"

namespace perfbench {

namespace {

constexpr int kRanks = 2;
constexpr int kMicroBatches = 4;
constexpr int kQualitySteps = 32;  // quality_loss averages the last steps
constexpr size_t kBlockSteps = 64;  // throughput: median over step blocks

struct Scale {
  int corpus_graphs;
  int reference_steps;  // warm-up run; also the quality_loss run
  int setup_reps;
};

Scale ScaleFor(const Options& options) {
  return options.smoke ? Scale{4096, 8, 2} : Scale{100000, 64, 5};
}

struct Run {
  std::vector<double> losses;  // rank 0's per-step losses
  std::vector<StepLog> logs;   // one per rank
  std::vector<std::string> failures;  // gates this run failed
};

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), sizeof(double) * a.size()) == 0;
}

bool SameParams(const std::vector<gradgcl::Matrix>& a,
                const std::vector<gradgcl::Matrix>& b) {
  if (a.size() != b.size()) return false;
  for (size_t k = 0; k < a.size(); ++k) {
    if (a[k].rows() != b[k].rows() || a[k].cols() != b[k].cols() ||
        std::memcmp(a[k].data(), b[k].data(),
                    sizeof(double) * a[k].size()) != 0) {
      return false;
    }
  }
  return true;
}

// Both ranks train `steps` optimizer steps from the fixed seeds over a
// fresh comm ring.
Run TrainRun(const gradgcl::data::ShardedDataset& dataset,
             const Options& options, int steps, bool traced) {
  gradgcl::dist::DistOptions dist;
  dist.train.epochs = steps;  // an upper bound: stop_at_step ends the run
  dist.train.batch_size = kBatchSize;
  dist.train.seed = TrainSeed(options.seed);
  dist.world_size = kRanks;
  dist.micro_batches_per_step = kMicroBatches;
  dist.stop_at_step = steps;

  Run run;
  for (int r = 0; r < kRanks; ++r) run.logs.emplace_back(traced, steps);
  std::vector<gradgcl::dist::DistResult> results(kRanks);
  std::vector<std::vector<gradgcl::Matrix>> params(kRanks);
  std::vector<std::unique_ptr<gradgcl::dist::CommBackend>> ring =
      gradgcl::dist::CreateThreadRing(kRanks);
  std::vector<std::thread> ranks;
  for (int r = 0; r < kRanks; ++r) {
    ranks.emplace_back([&, r] {
      StepLog* log = &run.logs[r];
      gradgcl::data::PrefetchOptions prefetch;
      prefetch.num_threads = 1;
      gradgcl::data::PrefetchReader reader(dataset, prefetch);
      TimedSource source(reader, log);
      gradgcl::Rng init(kModelSeed);
      TimedModel model(
          std::make_unique<gradgcl::GraphCl>(
              BenchModelConfig(gradgcl::kNumAtomTypes), init),
          log);
      TimedComm comm(std::move(ring[r]), log, dist.timeout_millis);
      gradgcl::dist::DataParallelTrainer trainer(dist);
      results[r] = trainer.RunStreamed(model, source, &comm);
      params[r] = model.StateCopy();
    });
  }
  for (std::thread& rank : ranks) rank.join();
  run.losses = results[0].step_losses;

  const auto gate = [&run](bool ok, const char* what) {
    if (!ok) run.failures.push_back(what);
  };
  for (const gradgcl::dist::DistResult& result : results) {
    gate(result.status == gradgcl::dist::CommStatus::kOk &&
             result.steps_completed == steps,
         "pretrain_dp2_stream: a rank did not complete its steps");
  }
  if (options.corrupt == Corrupt::kRankParams && !params[1].empty()) {
    params[1][0].data()[0] = std::nextafter(params[1][0].data()[0], 1e300);
  }
  gate(SameBits(results[0].step_losses, results[1].step_losses),
       "pretrain_dp2_stream: ranks report different step losses");
  gate(SameParams(params[0], params[1]),
       "pretrain_dp2_stream: ranks end with different parameters");
  return run;
}

// Step durations (ms) of one rank, first step excluded (it carries the
// ring broadcast and reader start-up).
std::vector<double> StepMs(const StepLog& log) {
  std::vector<double> out;
  const std::vector<StepRecord>& steps = log.steps();
  for (size_t k = 1; k < steps.size(); ++k) {
    out.push_back(static_cast<double>(steps[k].end_ns - steps[k - 1].end_ns) *
                  1e-6);
  }
  return out;
}

// Graphs per second of both ranks over each block of consecutive steps
// (first step excluded), timed by rank 0's step ends: the all-reduce
// keeps the ranks in step.
std::vector<double> BlockRates(const Run& run) {
  const std::vector<StepRecord>& a = run.logs[0].steps();
  const std::vector<StepRecord>& b = run.logs[1].steps();
  const size_t steps = std::min(a.size(), b.size());
  const size_t block = std::min(kBlockSteps, steps - 1);
  std::vector<double> rates;
  for (size_t k = 1; k + block <= steps; k += block) {
    int64_t graphs = 0;
    for (size_t j = k; j < k + block; ++j) graphs += a[j].graphs + b[j].graphs;
    rates.push_back(static_cast<double>(graphs) * 1e9 /
                    static_cast<double>(a[k + block - 1].end_ns -
                                        a[k - 1].end_ns));
  }
  return rates;
}

}  // namespace

void RunPretrainDp(const Options& options, Report* report) {
  gradgcl::SetNumThreads(1);
  const Scale scale = ScaleFor(options);
  const std::string dir = options.work_dir + "/zinc_dp";

  std::unique_ptr<Corpus> corpus;
  std::vector<double> generate_s, write_s;
  const double setup_s = MedianSetup<std::unique_ptr<Corpus>>(
      scale.setup_reps, [&] { std::filesystem::remove_all(dir); },
      [&] {
        auto c = std::make_unique<Corpus>(
            WriteCorpus(scale.corpus_graphs, DataSeed(options.seed), dir));
        generate_s.push_back(c->generate_s);
        write_s.push_back(c->write_s);
        return c;
      },
      &corpus);
  report->Set("setup_s", setup_s);
  report->Set("datasets.generate_s", Median(generate_s));
  report->Set("data.shard_write_s", Median(write_s));

  // Warm-up run: its trajectory is the reference every measured run
  // must start with.
  const Run warm =
      TrainRun(corpus->dataset, options, scale.reference_steps, false);
  for (const std::string& f : warm.failures) report->Gate(false, f);
  const std::vector<double> reference = warm.losses;
  const size_t tail = std::min<size_t>(kQualitySteps, reference.size());
  report->Set("quality_loss",
              Mean(std::vector<double>(reference.end() - tail,
                                       reference.end())));
  // Peak memory of set-up and the warm-up run, as in train_fg_inram: the
  // matrix pool keeps power-of-two buckets, so the peak at the end of the
  // long run read 64 to 70 MiB by seed and run length.
  report->Set("peak_rss_mb", PeakRssMb());
  const auto check = [&](const Run& run) {
    for (const std::string& f : run.failures) report->Gate(false, f);
    report->Gate(run.losses.size() >= reference.size() &&
                     std::memcmp(run.losses.data(), reference.data(),
                                 sizeof(double) * reference.size()) == 0,
                 "pretrain_dp2_stream: trajectory differs from the "
                 "reference");
    report->attempted += static_cast<int64_t>(run.losses.size());
  };

  const double window = options.trace ? options.seconds / 2 : options.seconds;
  const std::vector<StepRecord>& warm_steps = warm.logs[0].steps();
  const double warm_step_s =
      static_cast<double>(warm_steps.back().end_ns - warm_steps.front().end_ns) *
      1e-9 / static_cast<double>(warm_steps.size() - 1);
  const int steps = std::max(scale.reference_steps,
                             static_cast<int>(std::lround(window / warm_step_s)));

  // The rate is a median over step blocks and the percentiles are
  // medians over slices of steps (SlicedPercentile), so a burst of
  // outside load on the host moves a minority of them, not the result.
  const Run run = TrainRun(corpus->dataset, options, steps, false);
  check(run);
  std::vector<double> step_us;
  for (const StepLog& log : run.logs) {
    for (double ms : StepMs(log)) step_us.push_back(ms * 1e3);
  }
  const double throughput = Median(BlockRates(run));
  report->Set("throughput_per_s", throughput);
  report->Set("latency_p50_us", SlicedPercentile(step_us, 50.0));
  std::printf("pretrain_dp2_stream: %d steps, %.1f graphs/s, %zu step "
              "samples, p90 %.0f us, p99 %.0f us\n",
              steps, throughput, step_us.size(), Percentile(step_us, 90.0),
              Percentile(step_us, 99.0));
  if (!options.trace) return;

  const Run traced = TrainRun(corpus->dataset, options, steps, true);
  check(traced);
  std::vector<double> step_ms, wait_ms, loss_ms, comm_ms, compute_ms, skew_ms;
  double comm_bytes = 0.0, comm_calls = 0.0;
  for (const StepLog& log : traced.logs) {
    const std::vector<double> ms = StepMs(log);
    step_ms.insert(step_ms.end(), ms.begin(), ms.end());
    const std::vector<StepRecord>& records = log.steps();
    for (size_t k = 1; k < records.size(); ++k) {
      const StepRecord& s = records[k];
      wait_ms.push_back(static_cast<double>(s.data_wait_ns) * 1e-6);
      loss_ms.push_back(static_cast<double>(s.batch_loss_ns) * 1e-6);
      comm_ms.push_back(static_cast<double>(s.comm_ns) * 1e-6);
      compute_ms.push_back(ms[k - 1] - wait_ms.back() - comm_ms.back());
      comm_bytes += static_cast<double>(s.comm_bytes);
      comm_calls += static_cast<double>(s.comm_calls);
    }
  }
  const std::vector<StepRecord>& a = traced.logs[0].steps();
  const std::vector<StepRecord>& b = traced.logs[1].steps();
  for (size_t k = 1; k < std::min(a.size(), b.size()); ++k) {
    skew_ms.push_back(
        static_cast<double>(std::llabs(a[k].first_comm_ns -
                                       b[k].first_comm_ns)) *
        1e-6);
  }
  const double traced_steps = static_cast<double>(step_ms.size());
  const double traced_throughput = Median(BlockRates(traced));
  report->Set("train.step_ms", Mean(step_ms));
  report->SetPercentiles("train.step_ms", step_ms);
  report->SetPercentiles("data.next_batch_wait_ms", wait_ms);
  report->SetPercentiles("models.batch_loss_ms", loss_ms);
  report->SetPercentiles("distributed.comm_ms", comm_ms);
  report->SetPercentiles("distributed.compute_ms", compute_ms);
  report->SetPercentiles("distributed.rank_skew_ms", skew_ms);
  report->Set("distributed.comm_bytes_per_step", comm_bytes / traced_steps);
  report->Set("distributed.comm_calls_per_step", comm_calls / traced_steps);
  report->Set("obs.trace_overhead_pct",
              (throughput / traced_throughput - 1.0) * 100.0);
}

}  // namespace perfbench
