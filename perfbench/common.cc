#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>

namespace perfbench {

namespace {

bool ParseCorrupt(const std::string& s, Corrupt* out) {
  static const std::pair<const char*, Corrupt> kNames[] = {
      {"none", Corrupt::kNone},
      {"train_trajectory", Corrupt::kTrainTrajectory},
      {"rank_params", Corrupt::kRankParams},
      {"served_embedding", Corrupt::kServedEmbedding},
      {"neighbors", Corrupt::kNeighbors},
  };
  for (const auto& [name, value] : kNames) {
    if (s == name) {
      *out = value;
      return true;
    }
  }
  return false;
}

}  // namespace

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "smoke") return false;
      options->smoke = value == "smoke";
    } else if (flag == "--work-dir") {
      options->work_dir = value;
    } else if (flag == "--corrupt") {
      if (!ParseCorrupt(value, &options->corrupt)) return false;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return !options->workload.empty() && !options->work_dir.empty();
}

double TimeSeconds(const std::function<void()>& fn) {
  const int64_t t0 = NowNs();
  fn();
  return static_cast<double>(NowNs() - t0) * 1e-9;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

double SlicedPercentile(const std::vector<double>& samples, double p) {
  const size_t n = samples.size();
  const size_t slices = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(n) * (1.0 - p / 100.0) / 10.0));
  std::vector<double> per_slice;
  for (size_t s = 0; s < slices; ++s) {
    per_slice.push_back(Percentile(
        std::vector<double>(samples.begin() + n * s / slices,
                            samples.begin() + n * (s + 1) / slices),
        p));
  }
  return Median(per_slice);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Report::Gate(bool ok, const std::string& what, int64_t failures) {
  if (ok) return;
  gate_failures.push_back(what);
  failed += failures;
  std::fprintf(stderr, "perfbench: correctness gate failed: %s\n",
               what.c_str());
}

void Report::SetPercentiles(const std::string& name,
                            const std::vector<double>& samples) {
  Set(name + ".p50", Percentile(samples, 50.0));
  Set(name + ".p99", Percentile(samples, 99.0));
}

const std::vector<MetricSpec>& Catalog() {
  static const std::vector<MetricSpec> kCatalog = {
      // End to end (every workload).
      {"setup_s", "s", true},
      {"peak_rss_mb", "MiB", true},
      {"throughput_per_s", "1/s", true},
      {"latency_p50_us", "us", true},
      {"quality_loss", "1", true},
      // train_fg_inram: the decomposed optimizer step, mean ms per step.
      {"train.step_ms", "ms", false},
      {"models.encode_views_ms", "ms", false},
      {"augment.views_ms", "ms", false},
      {"graph.make_batch_ms", "ms", false},
      {"losses.loss_f_ms", "ms", false},
      {"core.grad_features_ms", "ms", false},
      {"losses.loss_g_ms", "ms", false},
      {"autograd.backward_ms", "ms", false},
      {"train.optimizer_ms", "ms", false},
      {"train.unattributed_ms", "ms", false},
      {"tensor.heap_allocs_per_step", "count", false},
      {"tensor.pool_hits_per_step", "count", false},
      // pretrain_dp2_stream: per optimizer step and rank.
      {"train.step_ms.p50", "ms", false},
      {"train.step_ms.p99", "ms", false},
      {"data.next_batch_wait_ms.p50", "ms", false},
      {"data.next_batch_wait_ms.p99", "ms", false},
      {"models.batch_loss_ms.p50", "ms", false},
      {"models.batch_loss_ms.p99", "ms", false},
      {"distributed.comm_ms.p50", "ms", false},
      {"distributed.comm_ms.p99", "ms", false},
      {"distributed.compute_ms.p50", "ms", false},
      {"distributed.compute_ms.p99", "ms", false},
      {"distributed.rank_skew_ms.p50", "ms", false},
      {"distributed.rank_skew_ms.p99", "ms", false},
      {"distributed.comm_bytes_per_step", "bytes", false},
      {"distributed.comm_calls_per_step", "count", false},
      // embed_search_c2: per request.
      {"data.read_graph_us.p50", "us", false},
      {"data.read_graph_us.p99", "us", false},
      {"serve.embed_us.p50", "us", false},
      {"serve.embed_us.p99", "us", false},
      {"serve.execute_us.p50", "us", false},
      {"serve.execute_us.p99", "us", false},
      {"serve.ingress_us.p50", "us", false},
      {"serve.ingress_us.p99", "us", false},
      {"retrieval.search_us.p50", "us", false},
      {"retrieval.search_us.p99", "us", false},
      {"retrieval.execute_us.p50", "us", false},
      {"retrieval.execute_us.p99", "us", false},
      {"retrieval.ingress_us.p50", "us", false},
      {"retrieval.ingress_us.p99", "us", false},
      {"retrieval.ivf_search_us.p50", "us", false},
      {"retrieval.ivf_search_us.p99", "us", false},
      {"serve.batch_graphs_mean", "count", false},
      {"retrieval.batch_queries_mean", "count", false},
      {"serve.steals", "count", false},
      {"retrieval.steals", "count", false},
      // Set-up phases (every workload runs the ones it needs).
      {"datasets.generate_s", "s", false},
      {"data.shard_write_s", "s", false},
      {"serve.embed_corpus_s", "s", false},
      {"retrieval.ivf_build_s", "s", false},
      // Every workload: traced minus untraced cost, % of untraced.
      {"obs.trace_overhead_pct", "%", false},
  };
  return kCatalog;
}

}  // namespace perfbench
