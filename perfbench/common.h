// Shared plumbing of the end-to-end benchmark: command-line options,
// the metric catalog (which mirrors BENCHMARK.json), exact percentiles
// over raw samples, correctness-gate bookkeeping, and the final JSON
// line.
//
// Every latency percentile the benchmark reports is computed here from
// samples the benchmark recorded itself — never from the library's
// fixed-bucket histograms.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Which reference a run deliberately corrupts (the gate self-test).
enum class Corrupt {
  kNone,
  kTrainTrajectory,   // train_fg_inram: one loss of the reference trajectory
  kRankParams,        // pretrain_dp2_stream: one parameter of rank 1
  kServedEmbedding,   // embed_search_c2: one reference embedding
  kNeighbors,         // embed_search_c2: one reference neighbor list
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;        // --scale smoke: tiny inputs, for tests
  std::string work_dir;      // scratch directory for generated shards
  Corrupt corrupt = Corrupt::kNone;
};

// Parses argv; returns false (after printing why to stderr) on bad
// input.
bool ParseOptions(int argc, char** argv, Options* options);

// --- Time -------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Seconds taken by fn().
double TimeSeconds(const std::function<void()>& fn);

// --- Statistics -------------------------------------------------------------

// Exact percentile (0 < p <= 100) of raw samples, linear interpolation
// between closest ranks (the numpy / statistics "inclusive" default).
// Empty input gives 0.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);
// Cuts samples, in the order they were taken, into as many equal slices
// as leave at least ten samples beyond the p-th percentile in each (one
// slice if there are too few), and returns the median of the slices'
// percentiles, so outside load on the host during a minority of the run
// does not move the result.
double SlicedPercentile(const std::vector<double>& samples, double p);
double Mean(const std::vector<double>& samples);

// Peak resident set size of this process, MiB.
double PeakRssMb();

// --- Results ----------------------------------------------------------------

// Outcome of one workload run. Metrics are keyed by their catalog name.
struct Report {
  int64_t attempted = 0;  // optimizer steps or requests
  int64_t failed = 0;     // those that failed or mismatched a reference
  std::vector<std::string> gate_failures;
  std::map<std::string, double> metrics;

  // Records a correctness gate; a failing gate adds `failures` to
  // `failed` and names itself in the output.
  void Gate(bool ok, const std::string& what, int64_t failures = 1);
  bool correct() const { return gate_failures.empty(); }

  void Set(const std::string& name, double value) { metrics[name] = value; }
  // Sets name.p50 and name.p99 from raw samples.
  void SetPercentiles(const std::string& name,
                      const std::vector<double>& samples);
};

// One catalog entry. end_to_end entries are printed with --trace 0,
// per-layer entries with --trace 1; the list is BENCHMARK.json's.
struct MetricSpec {
  const char* name;
  const char* unit;
  bool end_to_end;
};
const std::vector<MetricSpec>& Catalog();

// Runs `build` `reps` times, keeping the last result in *out, and
// returns the median wall time. `reset` runs before each repetition,
// untimed (it removes the previous repetition's files).
template <typename T>
double MedianSetup(int reps, const std::function<void()>& reset,
                   const std::function<T()>& build, T* out) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    *out = T();
    reset();
    const int64_t t0 = NowNs();
    *out = build();
    times.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  return Median(times);
}

// --- Workloads --------------------------------------------------------------

void RunTrainInRam(const Options& options, Report* report);
void RunPretrainDp(const Options& options, Report* report);
void RunEmbedSearch(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
