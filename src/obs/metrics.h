// Process-wide metrics registry: counters, gauges, and fixed-bucket
// histograms for the training/serving hot paths.
//
// Design (DESIGN.md §6 "Observability model"):
//  * Hot-path increments are wait-free. Every thread owns a private
//    shard (a fixed array of relaxed atomic cells); Counter::Add and
//    Histogram::Observe touch only the calling thread's shard — no
//    locks, no CAS loops, no allocation after the shard exists.
//  * Aggregation happens on flush: Snapshot() sums the cells across
//    all live shards plus the fold-in of exited threads. Counter and
//    histogram cells are unsigned integers, so the merged totals are
//    independent of summation order and therefore bit-stable across
//    GRADGCL_NUM_THREADS — the same determinism contract the parallel
//    substrate makes for numeric results.
//  * Gauges are single-slot doubles (last write wins), intended for
//    per-step values written by the one thread driving a training loop.
//  * Registration (name -> handle) takes a mutex and may allocate; do
//    it once outside the hot loop and reuse the handle. Handles are
//    small value types, valid for the process lifetime.
//
// MetricsEnabled() gates the *automatic* instrumentation wired through
// the trainer / pool / parallel substrate: it is on when GRADGCL_METRICS
// names a JSONL output path (see obs/collapse.h) or after
// SetMetricsEnabled(true). When off, every built-in hook reduces to one
// relaxed atomic load, and per-step allocation counts are unchanged.
// The registry itself always works; tests and custom callers may use it
// regardless of the flag.

#ifndef GRADGCL_OBS_METRICS_H_
#define GRADGCL_OBS_METRICS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace gradgcl::obs {

class MetricsRegistry;

// Monotonic counter handle (wait-free, thread-local sharded).
class Counter {
 public:
  Counter() = default;
  void Add(uint64_t n = 1);
  void Increment() { Add(1); }

 private:
  friend class MetricsRegistry;
  explicit Counter(uint32_t cell) : cell_(cell) {}
  uint32_t cell_ = 0;
};

// Single-slot double gauge (last write wins).
class Gauge {
 public:
  Gauge() = default;
  void Set(double value);
  double Get() const;

 private:
  friend class MetricsRegistry;
  explicit Gauge(uint32_t slot) : slot_(slot) {}
  uint32_t slot_ = 0;
};

// Fixed-bucket histogram: bucket i counts observations with
// value <= upper_edges[i] (first matching edge); one implicit overflow
// bucket catches everything above the last edge. Observe is wait-free.
class Histogram {
 public:
  Histogram() = default;
  void Observe(double value);
  // upper_edges.size() + 1 (including the overflow bucket).
  int num_buckets() const { return num_edges_ + 1; }

 private:
  friend class MetricsRegistry;
  Histogram(uint32_t first_cell, const double* edges, uint32_t num_edges)
      : first_cell_(first_cell), edges_(edges), num_edges_(num_edges) {}
  uint32_t first_cell_ = 0;
  const double* edges_ = nullptr;
  uint32_t num_edges_ = 0;
};

// Merged view of one histogram in a snapshot.
struct HistogramData {
  std::vector<double> upper_edges;  // finite bucket edges
  std::vector<uint64_t> counts;     // upper_edges.size() + 1 entries
  uint64_t total = 0;               // sum of counts
};

// Estimated value at percentile p (0 < p <= 100) of a merged histogram,
// with linear interpolation inside the containing bucket (observations
// are assumed uniform within a bucket, the Prometheus
// histogram_quantile convention). Semantics pinned by tests/obs_test.cc:
//  * Bucket i covers (upper_edges[i-1], upper_edges[i]]; bucket 0's
//    lower bound is min(0, upper_edges[0]) — 0 for the usual
//    positive-edge latency histograms.
//  * The target rank is p/100 * total; the estimate is
//    lower + (upper - lower) * (rank - cum_before) / bucket_count.
//  * Ranks landing in the overflow bucket clamp to the last finite
//    edge (there is no upper bound to interpolate towards).
//  * An empty histogram (total == 0) returns 0.
double HistogramPercentile(const HistogramData& h, double p);

// The three summary percentiles served by the inference engine
// (serve/latency, batch size); shorthand over HistogramPercentile.
struct PercentileSummary {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};
PercentileSummary SummarizePercentiles(const HistogramData& h);

// Consistent-enough merged view of the registry (relaxed reads; exact
// once all writer threads are quiescent, e.g. at a step boundary).
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramData>> histograms;

  // Lookup helpers (0 / empty when absent) for tests and emitters.
  uint64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;
  const HistogramData* histogram(const std::string& name) const;
};

// The process-wide registry — a facade over leaked global state (like
// MatrixPool, intentionally immortal so metric writes from late-exiting
// threads can never touch a destroyed object).
class MetricsRegistry {
 public:
  static MetricsRegistry& Instance();

  // Returns the handle for `name`, registering it on first use.
  // Re-requesting a name returns a handle to the same metric; the kind
  // (and histogram edges) must match the original registration.
  Counter GetCounter(const std::string& name);
  Gauge GetGauge(const std::string& name);
  Histogram GetHistogram(const std::string& name,
                         const std::vector<double>& upper_edges);

  // Merges all shards (live + folded-in from exited threads).
  MetricsSnapshot Snapshot() const;

  // Zeroes every counter/histogram cell and gauge slot. Registrations
  // survive. For test isolation only — not safe concurrently with
  // writers.
  void Reset();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  MetricsRegistry() = default;
};

// Gate for the built-in instrumentation (see file comment). Defaults to
// whether GRADGCL_METRICS is set in the environment.
bool MetricsEnabled();
void SetMetricsEnabled(bool enabled);

}  // namespace gradgcl::obs

#endif  // GRADGCL_OBS_METRICS_H_
