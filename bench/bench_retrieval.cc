// Recall-vs-QPS bench for the retrieval subsystem (src/retrieval/):
// builds a clustered embedding corpus (>= 100k vectors by default, dim
// 64), then sweeps scan strategy, storage tier, and IVF probe width
// against the exact f64 ranking:
//
//   flat_f64        exact cosine scan (the truth and the QPS baseline)
//   flat_int8       asymmetric int8 scan over the quantized store
//   flat_bf16       widening bf16 scan
//   ivf_int8_p<n>   IVF probe sweep, nprobe in {1,2,4,...} — the
//                   recall@10-vs-QPS curve the nprobe knob walks
//   ivf_bf16_p<n>   the bf16 rung of the same curve
//
// plus a served leg: the best int8 operating point behind
// RetrievalEngine's batched ingress (4 closed-loop clients), with
// latency percentiles from retrieval/latency_us and bitwise parity
// against direct SearchBatch results.
//
// Every recall number is measured against exact f64 top-10 on the same
// corpus. The bench writes BENCH_retrieval.json and exits 1 unless
// some IVF-int8 configuration reaches recall@10 >= 0.95 at >= 5x the
// flat-f64 QPS — the PR's acceptance floor, checked on every run.
//
// Runs single-core by design (hardware_threads is recorded);
// GRADGCL_RETRIEVAL_BENCH_N shrinks the corpus for smoke runs.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "retrieval/engine.h"
#include "retrieval/flat_index.h"
#include "retrieval/ivf_index.h"
#include "tensor/matrix.h"

namespace gradgcl {
namespace {

using retrieval::FlatIndex;
using retrieval::IvfConfig;
using retrieval::IvfIndex;
using retrieval::QuantizedStore;
using retrieval::RetrievalEngine;
using retrieval::RetrievalOptions;
using retrieval::RetrievalResult;
using retrieval::RetrievalStatus;
using retrieval::Tier;
using retrieval::TierName;

constexpr int kDim = 64;
constexpr int kClusters = 1000;
constexpr int kNumQueries = 256;
constexpr int kK = 10;
constexpr double kMinTimedSeconds = 0.25;  // per rep, per config
constexpr int kReps = 3;                   // best-of

int64_t CorpusSize() {
  if (const char* env = std::getenv("GRADGCL_RETRIEVAL_BENCH_N")) {
    const long long n = std::atoll(env);
    if (n > 0) return std::clamp<int64_t>(n, 2000, int64_t{1} << 24);
  }
  return 100000;
}

// Clustered corpus: kClusters Gaussian centers, each vector a center
// plus small isotropic noise — the embedding-space shape IVF exploits.
Matrix MakeCorpus(int64_t n, int d, Rng& rng) {
  const Matrix centers = Matrix::RandomNormal(kClusters, d, rng);
  Matrix corpus(static_cast<int>(n), d);
  for (int64_t i = 0; i < n; ++i) {
    const double* c = centers.data() + (i % kClusters) * d;
    double* row = corpus.data() + i * d;
    for (int j = 0; j < d; ++j) row[j] = c[j] + 0.30 * rng.Normal();
  }
  return corpus;
}

// Queries live near corpus points (retrieval's deployment regime:
// query embeddings come from the same encoder as the corpus).
Matrix MakeQueries(const Matrix& corpus, Rng& rng) {
  Matrix queries(kNumQueries, corpus.cols());
  const int64_t stride = std::max<int64_t>(1, corpus.rows() / kNumQueries);
  for (int q = 0; q < kNumQueries; ++q) {
    const double* src = corpus.data() + (q * stride) * corpus.cols();
    double* dst = queries.data() + static_cast<int64_t>(q) * corpus.cols();
    for (int j = 0; j < corpus.cols(); ++j) dst[j] = src[j] + 0.30 * rng.Normal();
  }
  return queries;
}

double RecallAtK(const std::vector<std::vector<Neighbor>>& truth,
                 const std::vector<std::vector<Neighbor>>& got) {
  int64_t hits = 0;
  int64_t total = 0;
  for (size_t q = 0; q < truth.size(); ++q) {
    total += static_cast<int64_t>(truth[q].size());
    for (const Neighbor& t : truth[q]) {
      for (const Neighbor& g : got[q]) {
        if (g.index == t.index) {
          ++hits;
          break;
        }
      }
    }
  }
  return total > 0 ? static_cast<double>(hits) / total : 0.0;
}

struct BenchRow {
  std::string label;
  std::string tier;   // "f64" | "int8" | "bf16"
  int nprobe = 0;     // 0 = flat scan
  double recall = 0.0;
  double qps = 0.0;
  double mean_query_us = 0.0;
};

// Times fn (one full SearchBatch over the query set) in a repeat-until
// loop, best QPS of kReps.
template <typename SearchFn>
BenchRow TimeConfig(const std::string& label, const char* tier, int nprobe,
                    const std::vector<std::vector<Neighbor>>& truth,
                    SearchFn&& fn) {
  BenchRow row;
  row.label = label;
  row.tier = tier;
  row.nprobe = nprobe;
  row.recall = RecallAtK(truth, fn());
  for (int rep = 0; rep < kReps; ++rep) {
    int64_t queries_done = 0;
    Stopwatch watch;
    do {
      fn();
      queries_done += kNumQueries;
    } while (watch.ElapsedSeconds() < kMinTimedSeconds);
    const double qps = static_cast<double>(queries_done) /
                       watch.ElapsedSeconds();
    row.qps = std::max(row.qps, qps);
  }
  row.mean_query_us = row.qps > 0.0 ? 1e6 / row.qps : 0.0;
  return row;
}

void PrintRow(const BenchRow& r) {
  std::printf("%-16s %5s %7d %10.4f %12.1f %12.2f\n", r.label.c_str(),
              r.tier.c_str(), r.nprobe, r.recall, r.qps, r.mean_query_us);
}

// Served leg: the chosen IVF operating point behind the batched
// engine; every completed request must match direct SearchBatch
// bitwise (scores and indices).
struct EngineRow {
  uint64_t completed = 0;
  uint64_t mismatched = 0;
  double qps = 0.0;
  obs::PercentileSummary latency_us;
  double mean_batch_queries = 0.0;
};

EngineRow RunEngineLeg(const IvfIndex& index, const Matrix& queries,
                       int nprobe) {
  obs::MetricsRegistry::Instance().Reset();
  RetrievalOptions options;
  options.num_workers = 1;
  options.max_batch_queries = 64;
  options.max_wait_micros = 0.0;
  options.max_queue_queries = 4096;
  options.nprobe = nprobe;
  RetrievalEngine engine(index, options);

  // Reference results for parity: the engine must reproduce direct
  // search bitwise whatever the batching timing.
  constexpr int kClientBatch = 16;
  const int num_requests = kNumQueries / kClientBatch;
  std::vector<Matrix> request_queries;
  std::vector<std::vector<std::vector<Neighbor>>> refs;
  for (int r = 0; r < num_requests; ++r) {
    Matrix block(kClientBatch, queries.cols());
    std::memcpy(block.data(),
                queries.data() +
                    static_cast<int64_t>(r) * kClientBatch * queries.cols(),
                sizeof(double) * static_cast<size_t>(block.size()));
    refs.push_back(index.SearchBatch(block, kK, nprobe));
    request_queries.push_back(std::move(block));
  }

  constexpr int kClients = 4;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> mismatched{0};
  std::vector<std::thread> clients;
  Stopwatch wall;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t r = (static_cast<size_t>(c) + i++) % request_queries.size();
        const RetrievalResult result = engine.Search(request_queries[r], kK);
        if (result.status != RetrievalStatus::kOk) continue;
        completed.fetch_add(1, std::memory_order_relaxed);
        bool ok = result.neighbors.size() == refs[r].size();
        for (size_t q = 0; ok && q < refs[r].size(); ++q) {
          ok = result.neighbors[q].size() == refs[r][q].size();
          for (size_t j = 0; ok && j < refs[r][q].size(); ++j) {
            ok = result.neighbors[q][j].index == refs[r][q][j].index &&
                 result.neighbors[q][j].score == refs[r][q][j].score;
          }
        }
        if (!ok) mismatched.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  while (wall.ElapsedSeconds() < 0.4) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();
  const double seconds = wall.ElapsedSeconds();
  engine.Shutdown();

  EngineRow row;
  row.completed = completed.load();
  row.mismatched = mismatched.load();
  row.qps = static_cast<double>(row.completed) * kClientBatch / seconds;
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Instance().Snapshot();
  if (const obs::HistogramData* lat =
          snap.histogram("retrieval/latency_us")) {
    row.latency_us = obs::SummarizePercentiles(*lat);
  }
  const uint64_t batches = snap.counter("retrieval/batches");
  const uint64_t batched = snap.counter("retrieval/queries");
  row.mean_batch_queries =
      batches > 0 ? static_cast<double>(batched) / batches : 0.0;
  return row;
}

void WriteJson(const char* path, int64_t n, const std::vector<BenchRow>& rows,
               const BenchRow* headline, double flat_f64_qps,
               const EngineRow& engine_row, int engine_nprobe) {
  std::FILE* json = std::fopen(path, "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"retrieval\",\n"
               "  \"hardware_threads\": %u,\n"
               "  \"corpus\": {\"num_vectors\": %lld, \"dim\": %d, "
               "\"clusters\": %d},\n"
               "  \"num_queries\": %d,\n  \"k\": %d,\n  \"reps\": %d,\n",
               std::thread::hardware_concurrency(),
               static_cast<long long>(n), kDim, kClusters, kNumQueries, kK,
               kReps);
  if (headline != nullptr) {
    std::fprintf(json,
                 "  \"headline\": {\"label\": %s, \"nprobe\": %d, "
                 "\"recall_at_10\": %.4f, \"qps\": %.1f, "
                 "\"flat_f64_qps\": %.1f, \"speedup_vs_flat_f64\": %.2f},\n",
                 JsonString(headline->label).c_str(), headline->nprobe,
                 headline->recall, headline->qps, flat_f64_qps,
                 flat_f64_qps > 0.0 ? headline->qps / flat_f64_qps : 0.0);
  }
  std::fprintf(json,
               "  \"engine\": {\"nprobe\": %d, \"clients\": 4, "
               "\"completed_requests\": %llu, \"mismatched\": %llu, "
               "\"qps\": %.1f, \"latency_us\": {\"p50\": %.2f, "
               "\"p95\": %.2f, \"p99\": %.2f}, "
               "\"mean_batch_queries\": %.4f},\n",
               engine_nprobe,
               static_cast<unsigned long long>(engine_row.completed),
               static_cast<unsigned long long>(engine_row.mismatched),
               engine_row.qps, engine_row.latency_us.p50,
               engine_row.latency_us.p95, engine_row.latency_us.p99,
               engine_row.mean_batch_queries);
  std::fprintf(json, "  \"runs\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    std::fprintf(json,
                 "    {\"label\": %s, \"tier\": %s, \"nprobe\": %d, "
                 "\"recall_at_10\": %.4f, \"qps\": %.1f, "
                 "\"mean_query_us\": %.2f}%s\n",
                 JsonString(r.label).c_str(), JsonString(r.tier).c_str(),
                 r.nprobe, r.recall, r.qps, r.mean_query_us,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote %s\n", path);
}

}  // namespace
}  // namespace gradgcl

int main() {
  using namespace gradgcl;

  const int64_t n = CorpusSize();
  Rng rng(9001);
  std::printf("building corpus: %lld x %d (%d clusters)\n",
              static_cast<long long>(n), kDim, kClusters);
  const Matrix corpus = MakeCorpus(n, kDim, rng);
  const Matrix queries = MakeQueries(corpus, rng);

  std::printf("building indexes...\n");
  Stopwatch build_watch;
  const FlatIndex flat_f64 = FlatIndex::BuildExact(corpus);
  const FlatIndex flat_int8 =
      FlatIndex::FromStore(QuantizedStore::Build(corpus, Tier::kInt8));
  const FlatIndex flat_bf16 =
      FlatIndex::FromStore(QuantizedStore::Build(corpus, Tier::kBf16));
  IvfConfig ivf_config;
  ivf_config.nlist = 1024;
  ivf_config.kmeans_iters = 4;
  const IvfIndex ivf_int8 = IvfIndex::Build(corpus, ivf_config);
  ivf_config.tier = Tier::kBf16;
  const IvfIndex ivf_bf16 = IvfIndex::Build(corpus, ivf_config);
  std::printf("indexes built in %.1fs (ivf nlist=%d)\n",
              build_watch.ElapsedSeconds(), ivf_int8.nlist());

  const std::vector<std::vector<Neighbor>> truth =
      flat_f64.SearchBatch(queries, kK);

  std::printf("%-16s %5s %7s %10s %12s %12s\n", "label", "tier", "nprobe",
              "recall@10", "qps", "us/query");
  std::vector<BenchRow> rows;
  rows.push_back(TimeConfig("flat_f64", "f64", 0, truth,
                            [&] { return flat_f64.SearchBatch(queries, kK); }));
  PrintRow(rows.back());
  const double flat_f64_qps = rows.back().qps;
  rows.push_back(TimeConfig("flat_int8", "int8", 0, truth, [&] {
    return flat_int8.SearchBatch(queries, kK);
  }));
  PrintRow(rows.back());
  rows.push_back(TimeConfig("flat_bf16", "bf16", 0, truth, [&] {
    return flat_bf16.SearchBatch(queries, kK);
  }));
  PrintRow(rows.back());
  for (const int nprobe : {1, 2, 4, 8, 16, 32, 64}) {
    rows.push_back(TimeConfig("ivf_int8_p" + std::to_string(nprobe), "int8",
                              nprobe, truth, [&] {
                                return ivf_int8.SearchBatch(queries, kK,
                                                            nprobe);
                              }));
    PrintRow(rows.back());
  }
  for (const int nprobe : {4, 16, 64}) {
    rows.push_back(TimeConfig("ivf_bf16_p" + std::to_string(nprobe), "bf16",
                              nprobe, truth, [&] {
                                return ivf_bf16.SearchBatch(queries, kK,
                                                            nprobe);
                              }));
    PrintRow(rows.back());
  }

  // Headline: fastest IVF-int8 point meeting the recall floor.
  const BenchRow* headline = nullptr;
  for (const BenchRow& r : rows) {
    if (r.tier != "int8" || r.nprobe == 0 || r.recall < 0.95) continue;
    if (headline == nullptr || r.qps > headline->qps) headline = &r;
  }

  const int engine_nprobe = headline != nullptr ? headline->nprobe : 16;
  const EngineRow engine_row = RunEngineLeg(ivf_int8, queries, engine_nprobe);
  std::printf(
      "engine (nprobe=%d, 4 clients): %llu requests, %.0f query/s, "
      "p99 %.0fus, batch %.1f, %llu mismatched\n",
      engine_nprobe, static_cast<unsigned long long>(engine_row.completed),
      engine_row.qps, engine_row.latency_us.p99,
      engine_row.mean_batch_queries,
      static_cast<unsigned long long>(engine_row.mismatched));

  WriteJson("BENCH_retrieval.json", n, rows, headline, flat_f64_qps,
            engine_row, engine_nprobe);

  if (engine_row.mismatched > 0) {
    std::fprintf(stderr,
                 "FAIL: %llu served results mismatched direct search\n",
                 static_cast<unsigned long long>(engine_row.mismatched));
    return 1;
  }
  if (headline == nullptr) {
    std::fprintf(stderr,
                 "FAIL: no IVF-int8 config reached recall@10 >= 0.95\n");
    return 1;
  }
  const double speedup = flat_f64_qps > 0.0 ? headline->qps / flat_f64_qps
                                            : 0.0;
  std::printf("headline: %s recall@10 %.4f at %.1fx flat-f64 QPS\n",
              headline->label.c_str(), headline->recall, speedup);
  if (speedup < 5.0) {
    std::fprintf(stderr,
                 "FAIL: best compliant IVF-int8 config is only %.2fx "
                 "flat-f64 (need >= 5x)\n",
                 speedup);
    return 1;
  }
  return 0;
}
