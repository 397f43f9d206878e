// Tests for the observability subsystem (src/obs/): registry merge
// determinism across thread counts, histogram bucket semantics, trace
// span nesting and the Chrome JSON writer, the collapse monitor's
// bitwise agreement with the offline eval/spectrum + losses/metrics
// analysis, the zero-allocation guarantee of the metrics hot path, and
// the trainer's bit-identical trajectory with observability on vs off.

#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "datasets/tu_synthetic.h"
#include "eval/spectrum.h"
#include "losses/metrics.h"
#include "models/graphcl.h"
#include "obs/collapse.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/matrix.h"
#include "tensor/pool.h"
#include "train/trainer.h"

#include "heap_counter.h"

namespace gradgcl {
namespace {

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::string> SlurpLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// The %.17g rendering collapse.cc uses — matching on it in the JSONL
// stream pins the streamed value to the last bit.
std::string G17(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// --- common/json.h ----------------------------------------------------------

TEST(JsonEscapeTest, PassesPlainTextThrough) {
  EXPECT_EQ(JsonEscape("GraphCL(f+g) PROTEINS batch=64"),
            "GraphCL(f+g) PROTEINS batch=64");
}

TEST(JsonEscapeTest, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
}

TEST(JsonEscapeTest, EscapesControlCharacters) {
  EXPECT_EQ(JsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(JsonEscape(std::string_view("\x01", 1)), "\\u0001");
  EXPECT_EQ(JsonEscape("\b\f"), "\\b\\f");
}

TEST(JsonEscapeTest, PassesUtf8Through) {
  EXPECT_EQ(JsonEscape("ℓ_f/ℓ_g"), "ℓ_f/ℓ_g");
}

TEST(JsonEscapeTest, JsonStringAddsQuotes) {
  EXPECT_EQ(JsonString("x\"y"), "\"x\\\"y\"");
}

// --- obs/metrics.h ----------------------------------------------------------

TEST(MetricsRegistryTest, CounterAccumulatesAcrossHandles) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
  obs::Counter a = reg.GetCounter("test/handles");
  obs::Counter b = reg.GetCounter("test/handles");  // same metric
  a.Add(3);
  b.Add(4);
  b.Increment();
  EXPECT_EQ(reg.Snapshot().counter("test/handles"), 8u);
}

TEST(MetricsRegistryTest, GaugeIsLastWriteWinsAndBitExact) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
  obs::Gauge g = reg.GetGauge("test/gauge");
  g.Set(3.5);
  EXPECT_EQ(g.Get(), 3.5);
  g.Set(-0.0);
  EXPECT_TRUE(std::signbit(g.Get()));  // bitcast round-trip keeps -0.0
  g.Set(1.25);
  EXPECT_EQ(reg.Snapshot().gauge("test/gauge"), 1.25);
}

TEST(MetricsRegistryTest, HistogramBucketEdgesAreInclusiveUpperBounds) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
  obs::Histogram h = reg.GetHistogram("test/edges", {1.0, 2.0, 4.0});
  EXPECT_EQ(h.num_buckets(), 4);  // 3 finite + overflow
  h.Observe(0.0);        // bucket 0
  h.Observe(1.0);        // bucket 0: value <= edge is inclusive
  h.Observe(1.0000001);  // bucket 1
  h.Observe(2.0);        // bucket 1
  h.Observe(3.0);        // bucket 2
  h.Observe(4.0);        // bucket 2
  h.Observe(4.5);        // overflow
  const obs::MetricsSnapshot snap = reg.Snapshot();
  const obs::HistogramData* data = snap.histogram("test/edges");
  ASSERT_NE(data, nullptr);
  ASSERT_EQ(data->counts.size(), 4u);
  EXPECT_EQ(data->counts[0], 2u);
  EXPECT_EQ(data->counts[1], 2u);
  EXPECT_EQ(data->counts[2], 2u);
  EXPECT_EQ(data->counts[3], 1u);
  EXPECT_EQ(data->total, 7u);
  ASSERT_EQ(data->upper_edges.size(), 3u);
  EXPECT_EQ(data->upper_edges[2], 4.0);
}

// --- HistogramPercentile: pinned interpolation semantics --------------------
// These tests are the normative definition of the estimator (see the
// doc comment in obs/metrics.h): bucket i covers
// (upper_edges[i-1], upper_edges[i]], linear interpolation inside the
// containing bucket, overflow clamps to the last finite edge.

TEST(HistogramPercentileTest, EmptyHistogramReturnsZero) {
  obs::HistogramData h;
  h.upper_edges = {1.0, 2.0};
  h.counts = {0, 0, 0};
  h.total = 0;
  EXPECT_EQ(obs::HistogramPercentile(h, 50.0), 0.0);
  const obs::PercentileSummary s = obs::SummarizePercentiles(h);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.p95, 0.0);
  EXPECT_EQ(s.p99, 0.0);
}

TEST(HistogramPercentileTest, InterpolatesLinearlyWithinBucket) {
  // 4 observations, all in the single bucket (0, 10].
  obs::HistogramData h;
  h.upper_edges = {10.0};
  h.counts = {4, 0};
  h.total = 4;
  // rank = p/100 * 4; estimate = 0 + 10 * rank/4.
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(h, 25.0), 2.5);
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(h, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(h, 100.0), 10.0);
  // p is clamped to [0, 100].
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(h, 250.0), 10.0);
}

TEST(HistogramPercentileTest, WalksCumulativeCountsAcrossBuckets) {
  // (0,1]: 2   (1,2]: 2   (2,4]: 4   overflow: 0     total 8
  obs::HistogramData h;
  h.upper_edges = {1.0, 2.0, 4.0};
  h.counts = {2, 2, 4, 0};
  h.total = 8;
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(h, 25.0), 1.0);  // rank 2
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(h, 50.0), 2.0);  // rank 4
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(h, 75.0), 3.0);  // rank 6
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(h, 100.0), 4.0);
  // Empty buckets are skipped without affecting the interpolation.
  obs::HistogramData sparse;
  sparse.upper_edges = {1.0, 2.0, 4.0, 8.0};
  sparse.counts = {2, 0, 0, 2, 0};
  sparse.total = 4;
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(sparse, 75.0), 6.0);  // rank 3
}

TEST(HistogramPercentileTest, OverflowBucketClampsToLastFiniteEdge) {
  obs::HistogramData h;
  h.upper_edges = {1.0, 2.0};
  h.counts = {1, 1, 2};  // half the mass is above the last edge
  h.total = 4;
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(h, 99.0), 2.0);
  const obs::PercentileSummary s = obs::SummarizePercentiles(h);
  EXPECT_DOUBLE_EQ(s.p50, 2.0);  // rank 2 lands exactly on bucket 1's edge
  EXPECT_DOUBLE_EQ(s.p95, 2.0);
  EXPECT_DOUBLE_EQ(s.p99, 2.0);
}

TEST(HistogramPercentileTest, NonPositiveFirstEdgeIsDegenerate) {
  // Bucket 0's lower bound is min(0, edge): a non-positive first edge
  // gives a zero-width first bucket that returns the edge itself.
  obs::HistogramData h;
  h.upper_edges = {-10.0, 10.0};
  h.counts = {2, 2, 0};
  h.total = 4;
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(h, 25.0), -10.0);
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(h, 75.0), 0.0);  // -10 + 20*1/2
}

TEST(HistogramPercentileTest, MatchesRegistryObservations) {
  // End-to-end: observe through a registry handle, summarize the
  // snapshot. 100 observations spread uniformly over (0, 100].
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
  obs::Histogram h = reg.GetHistogram("test/pctl", {25.0, 50.0, 75.0, 100.0});
  for (int i = 1; i <= 100; ++i) h.Observe(static_cast<double>(i));
  const obs::MetricsSnapshot snap = reg.Snapshot();
  const obs::HistogramData* data = snap.histogram("test/pctl");
  ASSERT_NE(data, nullptr);
  ASSERT_EQ(data->total, 100u);
  const obs::PercentileSummary s = obs::SummarizePercentiles(*data);
  EXPECT_DOUBLE_EQ(s.p50, 50.0);
  EXPECT_DOUBLE_EQ(s.p95, 95.0);
  EXPECT_DOUBLE_EQ(s.p99, 99.0);
}

TEST(MetricsRegistryTest, MergeIsBitStableAcrossThreadCounts) {
  // The same logical workload split over 1, 2, and 4 writer threads
  // must merge to identical totals — counter and histogram cells are
  // integers, so shard merge order cannot matter. The workers exit
  // before the snapshot, which also exercises the retired fold-in.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
  constexpr uint64_t kTotal = 960;  // divisible by 1, 2, 4 (and by 4 again)
  std::vector<uint64_t> counter_totals;
  std::vector<std::vector<uint64_t>> histogram_counts;
  for (int threads : {1, 2, 4}) {
    reg.Reset();
    obs::Counter c = reg.GetCounter("test/merge_counter");
    obs::Histogram h = reg.GetHistogram("test/merge_hist", {0.5, 1.5, 2.5});
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&c, &h, threads] {
        for (uint64_t i = 0; i < kTotal / threads; ++i) {
          c.Add(1);
          h.Observe(static_cast<double>(i % 4));
        }
      });
    }
    for (std::thread& w : workers) w.join();
    const obs::MetricsSnapshot snap = reg.Snapshot();
    counter_totals.push_back(snap.counter("test/merge_counter"));
    const obs::HistogramData* data = snap.histogram("test/merge_hist");
    ASSERT_NE(data, nullptr);
    histogram_counts.push_back(data->counts);
  }
  for (size_t i = 1; i < counter_totals.size(); ++i) {
    EXPECT_EQ(counter_totals[i], counter_totals[0]);
    EXPECT_EQ(histogram_counts[i], histogram_counts[0]);
  }
  EXPECT_EQ(counter_totals[0], kTotal);
  reg.Reset();
}

TEST(MetricsHotPathTest, SteadyStateWritesAreAllocationFree) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
  obs::Counter c = reg.GetCounter("test/hot_counter");
  obs::Histogram h = reg.GetHistogram("test/hot_hist", {1.0, 4.0, 16.0});
  obs::Gauge g = reg.GetGauge("test/hot_gauge");
  // Warm-up creates this thread's shard; everything after must be pure
  // atomic traffic.
  c.Add(1);
  h.Observe(0.5);
  g.Set(0.0);

  const uint64_t before = HeapNewCalls();
  for (int i = 0; i < 10000; ++i) {
    c.Add(1);
    h.Observe(static_cast<double>(i % 32));
    g.Set(static_cast<double>(i));
  }
  const uint64_t after = HeapNewCalls();
  EXPECT_EQ(after, before) << (after - before)
                           << " heap allocations on the metrics hot path";
}

TEST(MetricsHotPathTest, DisabledTrainingHooksAreAllocationFree) {
  // With no stream configured the monitor hooks and TraceScope reduce
  // to atomic loads — the exact disabled-path contract the benches
  // depend on.
  obs::CollapseMonitor& monitor = obs::CollapseMonitor::Instance();
  ASSERT_FALSE(obs::MetricsEnabled());
  ASSERT_FALSE(obs::TracingEnabled());
  const uint64_t before = HeapNewCalls();
  for (int i = 0; i < 1000; ++i) {
    obs::TraceScope span("test/disabled");
    monitor.BeginStep(obs::StepContext{i, 0});
    monitor.EndStep(0.5, 1.0, 0.001);
  }
  EXPECT_EQ(HeapNewCalls(), before);
}

// --- obs/trace.h ------------------------------------------------------------

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = obs::TracingEnabled();
    obs::ClearTrace();
  }
  void TearDown() override {
    obs::SetTracingEnabled(was_enabled_);
    obs::ClearTrace();
  }

 private:
  bool was_enabled_ = false;
};

TEST_F(TraceTest, SpansNestByTimestampContainment) {
  obs::SetTracingEnabled(true);
  {
    obs::TraceScope outer("outer");
    {
      obs::TraceScope inner("inner");
      volatile double sink = 0.0;
      for (int i = 0; i < 100; ++i) sink = sink + i;
    }
  }
  obs::SetTracingEnabled(false);

  const std::vector<obs::TraceEvent> events = obs::SnapshotTraceEvents();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by start: outer opened first and fully contains inner.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_LE(events[0].start_ns, events[1].start_ns);
  EXPECT_LE(events[1].start_ns + events[1].duration_ns,
            events[0].start_ns + events[0].duration_ns);
  EXPECT_EQ(events[0].tid, events[1].tid);
  EXPECT_EQ(obs::DroppedTraceEvents(), 0u);
}

TEST_F(TraceTest, DisabledScopesRecordNothing) {
  obs::SetTracingEnabled(false);
  { obs::TraceScope span("invisible"); }
  EXPECT_TRUE(obs::SnapshotTraceEvents().empty());
}

TEST_F(TraceTest, WriterEmitsChromeTraceJson) {
  obs::SetTracingEnabled(true);
  {
    obs::TraceScope span(obs::InternName("na\"me"));  // exercises escaping
  }
  { obs::TraceScope span("plain"); }
  obs::SetTracingEnabled(false);

  const std::string path = ::testing::TempDir() + "/gradgcl_trace.json";
  ASSERT_TRUE(obs::WriteTraceTo(path));
  const std::string json = Slurp(path);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"na\\\"me\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"plain\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(TraceTest, HotPathPushIsAllocationFree) {
  obs::SetTracingEnabled(true);
  { obs::TraceScope warmup("warmup"); }  // creates this thread's ring
  const uint64_t before = HeapNewCalls();
  for (int i = 0; i < 1000; ++i) {
    obs::TraceScope span("hot");
  }
  EXPECT_EQ(HeapNewCalls(), before);
  obs::SetTracingEnabled(false);
}

// --- obs/collapse.h ---------------------------------------------------------

// Restores monitor/metrics/thread state so tests can reconfigure
// freely (mirrors pool_test's PoolEnvironmentTest).
class CollapseMonitorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics_ = obs::MetricsEnabled();
    every_ = obs::CollapseMonitor::Instance().every();
    threads_ = NumThreads();
  }
  void TearDown() override {
    obs::CollapseMonitor::Instance().SetStreamPath("");
    obs::SetMetricsEnabled(metrics_);
    obs::CollapseMonitor::Instance().set_every(every_);
    SetNumThreads(threads_);
  }

 private:
  bool metrics_ = false;
  int every_ = 10;
  int threads_ = 1;
};

TEST_F(CollapseMonitorTest, AnalyzeCollapseMatchesOfflineAnalysisBitwise) {
  Rng rng(5);
  const Matrix u = Matrix::RandomNormal(12, 6, rng);
  const Matrix v = Matrix::RandomNormal(12, 6, rng);
  const obs::CollapseReport report = obs::AnalyzeCollapse(u, v);

  // Exactly the offline pipeline, value for value.
  const SpectrumReport spectrum = AnalyzeSpectrum(u);
  EXPECT_EQ(report.effective_rank, spectrum.effective_rank);
  EXPECT_EQ(report.surviving_dims, spectrum.surviving_dims);
  EXPECT_EQ(report.alignment, AlignmentMetric(u, v));
  EXPECT_EQ(report.uniformity, UniformityMetric(u));
  EXPECT_EQ(report.top_k, 6);  // min(8, d)
  double total = 0.0, top = 0.0;
  for (size_t i = 0; i < spectrum.singular_values.size(); ++i) {
    total += spectrum.singular_values[i];
    if (i < 6) top += spectrum.singular_values[i];
  }
  EXPECT_EQ(report.top_k_mass, top / total);
}

TEST_F(CollapseMonitorTest, AnalysisIsBitIdenticalAcrossThreadCounts) {
  Rng rng(9);
  const Matrix u = Matrix::RandomNormal(24, 8, rng);
  const Matrix v = Matrix::RandomNormal(24, 8, rng);
  SetNumThreads(1);
  const obs::CollapseReport ref = obs::AnalyzeCollapse(u, v);
  for (int threads : {2, 4}) {
    SetNumThreads(threads);
    const obs::CollapseReport report = obs::AnalyzeCollapse(u, v);
    EXPECT_EQ(report.effective_rank, ref.effective_rank) << threads;
    EXPECT_EQ(report.top_k_mass, ref.top_k_mass) << threads;
    EXPECT_EQ(report.alignment, ref.alignment) << threads;
    EXPECT_EQ(report.uniformity, ref.uniformity) << threads;
    EXPECT_EQ(report.surviving_dims, ref.surviving_dims) << threads;
  }
}

TEST_F(CollapseMonitorTest, StreamsSampledStepsAsJsonl) {
  obs::CollapseMonitor& monitor = obs::CollapseMonitor::Instance();
  const std::string path = ::testing::TempDir() + "/gradgcl_metrics.jsonl";
  monitor.SetStreamPath(path);
  monitor.set_every(2);
  ASSERT_TRUE(monitor.enabled());
  ASSERT_TRUE(obs::MetricsEnabled());  // SetStreamPath flips the gate

  Rng rng(5);
  const Matrix u = Matrix::RandomNormal(12, 6, rng);
  const Matrix v = Matrix::RandomNormal(12, 6, rng);

  for (int step = 0; step < 4; ++step) {
    monitor.BeginStep(obs::StepContext{step, 7});
    EXPECT_EQ(monitor.StageActive(), step % 2 == 0) << step;
    if (monitor.StageActive()) {
      monitor.RecordLossSplit(0.25, true, 0.75, true);
      monitor.RecordRepresentations(u, v);
    }
    monitor.EndStep(0.5, 1.25, 0.001);
  }
  monitor.CloseStream();

  const std::vector<std::string> lines = SlurpLines(path);
  ASSERT_EQ(lines.size(), 2u);  // steps 0 and 2
  EXPECT_NE(lines[0].find("\"step\":0,\"epoch\":7"), std::string::npos);
  EXPECT_NE(lines[1].find("\"step\":2,\"epoch\":7"), std::string::npos);

  // The streamed diagnostics are the %.17g rendering of exactly the
  // offline analysis — bit-exact through the text format.
  const obs::CollapseReport direct = obs::AnalyzeCollapse(u, v);
  for (const std::string& line : lines) {
    EXPECT_NE(line.find("\"loss\":" + G17(0.5)), std::string::npos);
    EXPECT_NE(line.find("\"loss_f\":" + G17(0.25)), std::string::npos);
    EXPECT_NE(line.find("\"loss_g\":" + G17(0.75)), std::string::npos);
    EXPECT_NE(line.find("\"grad_norm\":" + G17(1.25)), std::string::npos);
    EXPECT_NE(line.find("\"effective_rank\":" + G17(direct.effective_rank)),
              std::string::npos);
    EXPECT_NE(line.find("\"top_k_mass\":" + G17(direct.top_k_mass)),
              std::string::npos);
    EXPECT_NE(line.find("\"alignment\":" + G17(direct.alignment)),
              std::string::npos);
    EXPECT_NE(line.find("\"uniformity\":" + G17(direct.uniformity)),
              std::string::npos);
    EXPECT_NE(line.find("\"threads\":"), std::string::npos);
  }

  // Headline values mirror into the registry.
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Instance().Snapshot();
  EXPECT_EQ(snap.gauge("obs/effective_rank"), direct.effective_rank);
  EXPECT_EQ(snap.gauge("obs/alignment"), direct.alignment);
  EXPECT_EQ(snap.gauge("obs/uniformity"), direct.uniformity);
  EXPECT_EQ(snap.gauge("train/loss"), 0.5);
  EXPECT_GE(snap.counter("obs/records"), 2u);
  std::remove(path.c_str());
}

TEST_F(CollapseMonitorTest, UnsampledAndDisabledStepsEmitNothing) {
  obs::CollapseMonitor& monitor = obs::CollapseMonitor::Instance();
  const std::string path = ::testing::TempDir() + "/gradgcl_metrics_off.jsonl";
  monitor.SetStreamPath(path);
  monitor.set_every(1000);
  monitor.BeginStep(obs::StepContext{3, 0});  // 3 % 1000 != 0 → unsampled
  EXPECT_FALSE(monitor.StageActive());
  monitor.EndStep(0.5, 0.0, 0.001);
  monitor.CloseStream();
  EXPECT_TRUE(SlurpLines(path).empty());

  monitor.SetStreamPath("");  // disables the monitor and the gate
  EXPECT_FALSE(monitor.enabled());
  EXPECT_FALSE(obs::MetricsEnabled());
  monitor.BeginStep(obs::StepContext{0, 0});
  EXPECT_FALSE(monitor.StageActive());
  std::remove(path.c_str());
}

// --- trainer integration ----------------------------------------------------

TEST_F(CollapseMonitorTest, TrainerTrajectoryBitIdenticalWithObsOnAndOff) {
  TuProfile profile = TuProfileByName("MUTAG");
  profile.num_graphs = 24;
  const std::vector<Graph> data = GenerateTuDataset(profile, 2);

  const auto run = [&profile, &data] {
    Rng rng(6);
    GraphClConfig config;
    config.encoder.in_dim = profile.feature_dim;
    config.encoder.hidden_dim = 8;
    config.encoder.out_dim = 8;
    config.proj_dim = 8;
    config.grad_gcl.weight = 0.5;  // both ℓ_f and ℓ_g live
    GraphCl model(config, rng);
    TrainOptions options;
    options.epochs = 3;
    options.batch_size = 8;
    options.lr = 0.02;
    std::vector<double> losses;
    for (const EpochStats& e : TrainGraphSsl(model, data, options)) {
      losses.push_back(e.loss);
    }
    return losses;
  };

  obs::CollapseMonitor& monitor = obs::CollapseMonitor::Instance();
  monitor.SetStreamPath("");
  const std::vector<double> off = run();

  const std::string path = ::testing::TempDir() + "/gradgcl_train.jsonl";
  monitor.SetStreamPath(path);
  monitor.set_every(1);
  const std::vector<double> on = run();
  monitor.CloseStream();
  monitor.SetStreamPath("");

  // The monitor is read-only: observing every step must not change a
  // single bit of the loss trajectory.
  ASSERT_EQ(on.size(), off.size());
  for (size_t i = 0; i < on.size(); ++i) {
    EXPECT_EQ(std::memcmp(&on[i], &off[i], sizeof(double)), 0)
        << "epoch " << i << ": " << on[i] << " vs " << off[i];
  }

  // Every step streamed one record with the loss split and diagnostics.
  const std::vector<std::string> lines = SlurpLines(path);
  EXPECT_EQ(lines.size(), 9u);  // 3 epochs x 3 batches of 8 over 24 graphs
  for (const std::string& line : lines) {
    EXPECT_NE(line.find("\"loss\":"), std::string::npos);
    EXPECT_NE(line.find("\"loss_f\":"), std::string::npos);
    EXPECT_NE(line.find("\"loss_g\":"), std::string::npos);
    EXPECT_NE(line.find("\"effective_rank\":"), std::string::npos);
    EXPECT_NE(line.find("\"alignment\":"), std::string::npos);
    EXPECT_NE(line.find("\"uniformity\":"), std::string::npos);
    EXPECT_NE(line.find("\"grad_norm\":"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST_F(CollapseMonitorTest, SampledMetricValuesBitIdenticalAcrossThreads) {
  // The JSONL stream's deterministic fields must not change with
  // GRADGCL_NUM_THREADS. Strip the profiling fields (step_seconds,
  // pool deltas, threads — declared timing-bound) and compare the rest.
  TuProfile profile = TuProfileByName("MUTAG");
  profile.num_graphs = 16;
  const std::vector<Graph> data = GenerateTuDataset(profile, 2);

  obs::CollapseMonitor& monitor = obs::CollapseMonitor::Instance();
  const auto run = [&](int threads) {
    SetNumThreads(threads);
    const std::string path = ::testing::TempDir() + "/gradgcl_threads_" +
                             std::to_string(threads) + ".jsonl";
    monitor.SetStreamPath(path);
    monitor.set_every(1);
    Rng rng(6);
    GraphClConfig config;
    config.encoder.in_dim = profile.feature_dim;
    config.encoder.hidden_dim = 8;
    config.encoder.out_dim = 8;
    config.proj_dim = 8;
    config.grad_gcl.weight = 0.5;
    GraphCl model(config, rng);
    TrainOptions options;
    options.epochs = 2;
    options.batch_size = 8;
    options.lr = 0.02;
    TrainGraphSsl(model, data, options);
    monitor.CloseStream();
    std::vector<std::string> lines = SlurpLines(path);
    for (std::string& line : lines) {
      const size_t cut = line.find(",\"step_seconds\":");
      EXPECT_NE(cut, std::string::npos) << line;
      if (cut != std::string::npos) line.resize(cut);  // drop profiling tail
    }
    std::remove(path.c_str());
    return lines;
  };

  const std::vector<std::string> t1 = run(1);
  ASSERT_FALSE(t1.empty());
  for (int threads : {2, 4}) {
    const std::vector<std::string> tn = run(threads);
    ASSERT_EQ(tn.size(), t1.size()) << threads << " threads";
    for (size_t i = 0; i < t1.size(); ++i) {
      EXPECT_EQ(tn[i], t1[i]) << threads << " threads, record " << i;
    }
  }
}

}  // namespace
}  // namespace gradgcl
