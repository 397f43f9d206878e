// Closed-loop load bench for the serving subsystem (src/serve/):
// N client threads each submit one embedding request at a time and
// immediately resubmit on completion (closed loop — offered load tracks
// service capacity, no coordinated-omission artifacts). The bench
// sweeps client counts, batching deadlines, and worker counts against a
// fixed frozen session and writes BENCH_serve.json. Every config runs
// kReps times; a row reports the median-throughput rep (its latency
// percentiles come straight from the serve/latency_us histogram) plus
// the throughput quartiles over all reps.
//
// Headline comparison: dynamic micro-batching (max_batch_graphs > 1) vs
// single-request serving (max_batch_graphs = 1) at 8 closed-loop
// clients — "speedup_at_8_clients".
//
// Extra legs:
//  * a worker grid (worker_grid): workers {1, 2, 4} x clients
//    {1, 4, 8, 16} at deadlines 0 and 100us, with the best cell per
//    client count (grid_best) — how far extra workers on the one
//    ingress queue pay on this host;
//  * a latency-SLO sweep (slo_c*): p99 vs offered load at a fixed
//    tight batching policy, the curve capacity planning reads;
//  * a hot-swap-under-load leg: >= 100 ModelRegistry snapshot swaps
//    while 4 clients hammer the engine — every result must be bitwise
//    equal to the forward of the exact version it is tagged with, and
//    nothing may be dropped. The bench exits 1 on any violation;
//  * a shard-replay leg: a 512-graph corpus is written through
//    data/ShardWriter, mmap'd back with ShardedDataset, and replayed
//    through the serving ingress — every request decodes its graph
//    from the mapped shard on the hot path, so the leg measures the
//    end-to-end mmap-decode -> batch -> forward pipeline ("shard_replay"
//    in the JSON), with the same bitwise parity requirement.
//
// Every request's result is checked against a precomputed reference
// embedding (bitwise), so the bench doubles as a load-level parity
// test: a throughput number from wrong embeddings is worthless.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/stopwatch.h"
#include "data/shard_reader.h"
#include "data/shard_writer.h"
#include "datasets/tu_synthetic.h"
#include "nn/encoders.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/registry.h"
#include "serve/session.h"

namespace gradgcl {
namespace {

using serve::EmbeddingEngine;
using serve::EmbedResult;
using serve::InferenceSession;
using serve::ModelRegistry;
using serve::ServeOptions;
using serve::ServeStatus;

constexpr double kRunSeconds = 0.4;  // per rep
constexpr int kReps = 5;             // median and quartiles over reps

struct RunConfig {
  std::string label;
  int clients = 1;
  int max_batch_graphs = 16;
  double max_wait_micros = 200.0;
  int num_workers = 1;
};

struct RunResult {
  RunConfig config;
  uint64_t completed = 0;
  uint64_t mismatched = 0;
  double seconds = 0.0;
  double throughput_rps = 0.0;
  // Throughput quartiles over the reps this row summarizes.
  double throughput_q1_rps = 0.0;
  double throughput_q3_rps = 0.0;
  obs::PercentileSummary latency_us;
  double mean_batch_graphs = 0.0;
};

// Outcome of the hot-swap-under-load leg.
struct HotSwapResult {
  int num_workers = 0;
  uint64_t versions_published = 0;
  uint64_t completed = 0;
  uint64_t dropped = 0;
  uint64_t mismatched = 0;
};

bool BitIdentical(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(double) * static_cast<size_t>(a.size())) == 0;
}

// Closed-loop clients keep one request each in flight, so the bounded
// but generous queue never rejects: a rejection would poison the parity
// loop.
ServeOptions EngineOptions(const RunConfig& config) {
  ServeOptions opts;
  opts.num_workers = config.num_workers;
  opts.max_batch_graphs = config.max_batch_graphs;
  opts.max_wait_micros = config.max_wait_micros;
  opts.max_queue_graphs = std::max(64, 8 * config.clients);
  return opts;
}

// Fills the latency percentiles and realized batch size of `result` from
// the serve metrics of the run that just finished.
void ReadEngineMetrics(RunResult* result) {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Instance().Snapshot();
  if (const obs::HistogramData* lat = snap.histogram("serve/latency_us")) {
    result->latency_us = obs::SummarizePercentiles(*lat);
  }
  const uint64_t batches = snap.counter("serve/batches");
  const uint64_t batched_graphs = snap.counter("serve/graphs");
  result->mean_batch_graphs =
      batches > 0 ? static_cast<double>(batched_graphs) / batches : 0.0;
}

// The median-throughput rep of `reps`, annotated with the throughput
// quartiles; mismatches are summed over every rep so the parity gate
// sees all of them.
RunResult SummarizeReps(std::vector<RunResult> reps) {
  std::sort(reps.begin(), reps.end(),
            [](const RunResult& a, const RunResult& b) {
              return a.throughput_rps < b.throughput_rps;
            });
  const size_t n = reps.size();
  RunResult median = reps[n / 2];
  median.throughput_q1_rps = reps[n / 4].throughput_rps;
  median.throughput_q3_rps = reps[(3 * n) / 4].throughput_rps;
  median.mismatched = 0;
  for (const RunResult& r : reps) median.mismatched += r.mismatched;
  return median;
}

RunResult RunClosedLoop(const InferenceSession& session,
                        const std::vector<Graph>& graphs,
                        const std::vector<Matrix>& refs,
                        const RunConfig& config) {
  obs::MetricsRegistry::Instance().Reset();
  EmbeddingEngine engine(session, EngineOptions(config));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> mismatched{0};
  std::vector<std::thread> clients;
  clients.reserve(config.clients);
  Stopwatch wall;
  for (int c = 0; c < config.clients; ++c) {
    clients.emplace_back([&, c] {
      // Each client owns a stripe of prebuilt single-graph requests and
      // cycles through it — the closed loop measures the serving path,
      // not the load generator's own graph copies.
      std::vector<std::vector<Graph>> requests;
      std::vector<size_t> request_graph;
      for (size_t g = c; g < graphs.size();
           g += static_cast<size_t>(config.clients)) {
        requests.push_back({graphs[g]});
        request_graph.push_back(g);
      }
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t k = i % requests.size();
        EmbedResult r = engine.Embed(requests[k]);
        if (r.status == ServeStatus::kOk) {
          completed.fetch_add(1, std::memory_order_relaxed);
          if (!BitIdentical(r.embeddings, refs[request_graph[k]])) {
            mismatched.fetch_add(1, std::memory_order_relaxed);
          }
        }
        ++i;
      }
    });
  }
  // Sleep, don't spin: the load generator must not compete with the
  // worker for the core.
  while (wall.ElapsedSeconds() < kRunSeconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();
  const double seconds = wall.ElapsedSeconds();
  engine.Shutdown();

  RunResult result;
  result.config = config;
  result.completed = completed.load();
  result.mismatched = mismatched.load();
  result.seconds = seconds;
  result.throughput_rps = static_cast<double>(result.completed) / seconds;
  ReadEngineMetrics(&result);
  return result;
}

RunResult RunReps(const InferenceSession& session,
                  const std::vector<Graph>& graphs,
                  const std::vector<Matrix>& refs, const RunConfig& config) {
  std::vector<RunResult> reps;
  for (int rep = 0; rep < kReps; ++rep) {
    reps.push_back(RunClosedLoop(session, graphs, refs, config));
  }
  return SummarizeReps(std::move(reps));
}

// >= 100 RCU snapshot swaps under 4-client closed-loop load: every
// completed request's embeddings must memcmp-equal the forward of the
// exact parameter state its version tag names, and admission must
// never reject (the queue bound is sized to make rejects impossible,
// so any drop is an engine bug).
HotSwapResult RunHotSwap(const std::vector<Graph>& graphs, int num_workers) {
  constexpr int kStates = 4;
  constexpr int kSwaps = 120;
  std::vector<std::shared_ptr<const InferenceSession>> sessions;
  std::vector<std::vector<Matrix>> refs(kStates);  // [state][graph]
  for (int s = 0; s < kStates; ++s) {
    EncoderConfig config;
    config.kind = EncoderKind::kGin;
    config.in_dim = graphs.front().features.cols();
    config.hidden_dim = 16;
    config.out_dim = 16;
    config.num_layers = 2;
    Rng rng(1000 + static_cast<uint64_t>(s));
    GraphEncoder encoder(config, rng);
    sessions.push_back(InferenceSession::FromEncoder(encoder));
    for (const Graph& g : graphs) {
      refs[s].push_back(sessions[s]->EmbedGraphs(std::vector<Graph>{g}));
    }
  }

  ModelRegistry registry;
  registry.Publish("live", sessions[0]);  // version v = state (v - 1) % kStates
  ServeOptions opts;
  opts.num_workers = num_workers;
  opts.max_batch_graphs = 8;
  opts.max_wait_micros = 0.0;
  opts.max_queue_graphs = 1 << 20;  // must never trip: zero drops required
  EmbeddingEngine engine(registry, "live", opts);

  HotSwapResult result;
  result.num_workers = num_workers;
  std::atomic<bool> swapping_done{false};
  std::thread swapper([&] {
    for (int v = 2; v <= 1 + kSwaps; ++v) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      registry.Publish("live", sessions[(v - 1) % kStates]);
    }
    swapping_done.store(true, std::memory_order_release);
  });

  constexpr int kClients = 4;
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> dropped{0};
  std::atomic<uint64_t> mismatched{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      uint64_t i = 0;
      while (!swapping_done.load(std::memory_order_acquire)) {
        const size_t g = (static_cast<size_t>(c) + i++) % graphs.size();
        const std::vector<Graph> request{graphs[g]};
        const EmbedResult r = engine.Embed(request);
        if (r.status != ServeStatus::kOk) {
          dropped.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        completed.fetch_add(1, std::memory_order_relaxed);
        const bool version_ok = r.model_version >= 1 &&
                                r.model_version <= 1 + kSwaps &&
                                r.model_name == "live";
        const size_t state = static_cast<size_t>((r.model_version - 1)) %
                             static_cast<size_t>(kStates);
        if (!version_ok || !BitIdentical(r.embeddings, refs[state][g])) {
          mismatched.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  swapper.join();
  for (std::thread& t : clients) t.join();
  engine.Shutdown();
  result.versions_published = 1 + kSwaps;
  result.completed = completed.load();
  result.dropped = dropped.load();
  result.mismatched = mismatched.load();
  return result;
}

// Shard-replay leg: write `corpus` through data/ShardWriter, map it
// back, and run the closed loop with every request's graph decoded
// from the mmap'd shard inside the client loop — the serving path is
// fed straight from the on-disk container, the deployment shape the
// data pipeline PR built toward. Parity refs are forwards of the
// DECODED graphs (the writer canonicalises edge order), so any
// mismatch is a serving bug, not a format quirk.
struct ShardReplayResult {
  RunResult run;
  int64_t corpus_graphs = 0;
  int data_shards = 0;
};

ShardReplayResult RunShardReplay(const InferenceSession& session,
                                 const std::vector<Graph>& corpus,
                                 const RunConfig& config) {
  ShardReplayResult result;
  const std::string dir = "bench_serve_replay.shards";
  {
    data::ShardWriterOptions wopts;
    wopts.feature_dim = corpus.front().features.cols();
    wopts.graphs_per_shard = 128;  // 512 graphs -> 4 shard files
    data::ShardWriter writer(dir, wopts);
    for (const Graph& g : corpus) writer.Add(g);
    if (!writer.Finalize()) {
      std::fprintf(stderr, "FAIL: cannot write replay shards to %s\n",
                   dir.c_str());
      std::exit(1);
    }
  }
  data::ShardedDataset dataset;
  if (!dataset.Open(dir)) {
    std::fprintf(stderr, "FAIL: cannot map replay shards from %s\n",
                 dir.c_str());
    std::exit(1);
  }
  const std::vector<Graph> decoded = dataset.ReadAll();
  std::vector<Matrix> refs;
  refs.reserve(decoded.size());
  for (const Graph& g : decoded) {
    refs.push_back(session.EmbedGraphs(std::vector<Graph>{g}));
  }

  result.corpus_graphs = dataset.num_graphs();
  result.data_shards = dataset.num_shards();
  std::vector<RunResult> reps;
  for (int rep = 0; rep < kReps; ++rep) {
    obs::MetricsRegistry::Instance().Reset();
    EmbeddingEngine engine(session, EngineOptions(config));
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> completed{0};
    std::atomic<uint64_t> mismatched{0};
    std::vector<std::thread> clients;
    clients.reserve(config.clients);
    Stopwatch wall;
    for (int c = 0; c < config.clients; ++c) {
      clients.emplace_back([&, c] {
        uint64_t i = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const int64_t g = (static_cast<int64_t>(c) +
                             static_cast<int64_t>(i++) * config.clients) %
                            dataset.num_graphs();
          // Decode from the mapped shard on the hot path: this is the
          // replay — page-cache reads and record validation included.
          std::vector<Graph> request(1);
          if (!dataset.ReadGraph(g, &request[0])) {
            mismatched.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          EmbedResult r = engine.Embed(request);
          if (r.status == ServeStatus::kOk) {
            completed.fetch_add(1, std::memory_order_relaxed);
            if (!BitIdentical(r.embeddings, refs[static_cast<size_t>(g)])) {
              mismatched.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      });
    }
    while (wall.ElapsedSeconds() < kRunSeconds) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    stop.store(true);
    for (std::thread& t : clients) t.join();
    const double seconds = wall.ElapsedSeconds();
    engine.Shutdown();

    RunResult run;
    run.config = config;
    run.completed = completed.load();
    run.mismatched = mismatched.load();
    run.seconds = seconds;
    run.throughput_rps = static_cast<double>(run.completed) / seconds;
    ReadEngineMetrics(&run);
    reps.push_back(std::move(run));
  }
  result.run = SummarizeReps(std::move(reps));
  return result;
}

void PrintRow(const RunResult& r) {
  std::printf(
      "%-22s %7d %7d %9d %9.0f %10llu %10.0f %10.0f %10.0f %8.0f %8.0f "
      "%8.0f %7.2f\n",
      r.config.label.c_str(), r.config.clients, r.config.num_workers,
      r.config.max_batch_graphs, r.config.max_wait_micros,
      static_cast<unsigned long long>(r.completed), r.throughput_rps,
      r.throughput_q1_rps, r.throughput_q3_rps, r.latency_us.p50,
      r.latency_us.p95, r.latency_us.p99, r.mean_batch_graphs);
}

void PrintHeader() {
  std::printf("%-22s %7s %7s %9s %9s %10s %10s %10s %10s %8s %8s %8s %7s\n",
              "label", "clients", "workers", "max_batch", "wait_us",
              "completed", "rps", "rps_q1", "rps_q3", "p50us", "p95us",
              "p99us", "batch");
}

void WriteRunArray(std::FILE* json, const std::vector<RunResult>& runs) {
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    std::fprintf(
        json,
        "    {\"label\": %s, \"clients\": %d, \"workers\": %d, "
        "\"max_batch_graphs\": %d, \"max_wait_micros\": %.0f, "
        "\"completed\": %llu, \"mismatched\": %llu, \"seconds\": %.6f, "
        "\"throughput_rps\": %.2f, \"throughput_q1_rps\": %.2f, "
        "\"throughput_q3_rps\": %.2f, \"latency_us\": "
        "{\"p50\": %.2f, \"p95\": %.2f, \"p99\": %.2f}, "
        "\"mean_batch_graphs\": %.4f}%s\n",
        JsonString(r.config.label).c_str(), r.config.clients,
        r.config.num_workers, r.config.max_batch_graphs,
        r.config.max_wait_micros, static_cast<unsigned long long>(r.completed),
        static_cast<unsigned long long>(r.mismatched), r.seconds,
        r.throughput_rps, r.throughput_q1_rps, r.throughput_q3_rps,
        r.latency_us.p50, r.latency_us.p95, r.latency_us.p99,
        r.mean_batch_graphs, i + 1 < runs.size() ? "," : "");
  }
}

// Highest-median-throughput grid cell for each client count, in
// ascending client order.
std::vector<RunResult> BestPerClientCount(const std::vector<RunResult>& grid) {
  std::vector<RunResult> best;
  for (const RunResult& r : grid) {
    auto it = std::find_if(best.begin(), best.end(), [&](const RunResult& b) {
      return b.config.clients == r.config.clients;
    });
    if (it == best.end()) {
      best.push_back(r);
    } else if (r.throughput_rps > it->throughput_rps) {
      *it = r;
    }
  }
  std::sort(best.begin(), best.end(),
            [](const RunResult& a, const RunResult& b) {
              return a.config.clients < b.config.clients;
            });
  return best;
}

void WriteJson(const char* path, const EncoderConfig& model_config,
               const InferenceSession& session,
               const std::vector<RunResult>& runs,
               const std::vector<RunResult>& grid,
               const std::vector<RunResult>& slo_runs,
               const HotSwapResult& hot_swap,
               const ShardReplayResult& replay, double speedup_at_8) {
  std::FILE* json = std::fopen(path, "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"serve\",\n"
               "  \"run_seconds\": %.3f,\n"
               "  \"reps\": %d,\n"
               "  \"hardware_threads\": %u,\n"
               "  \"model\": {\"name\": \"default\", \"version\": 1, "
               "\"encoder\": \"gin\", \"num_layers\": %d, \"hidden_dim\": %d, "
               "\"out_dim\": %d, \"num_scalar_parameters\": %zu},\n"
               "  \"speedup_at_8_clients\": %.4f,\n",
               kRunSeconds, kReps, std::thread::hardware_concurrency(),
               model_config.num_layers, model_config.hidden_dim,
               model_config.out_dim, session.NumScalarParameters(),
               speedup_at_8);
  std::fprintf(json,
               "  \"hot_swap\": {\"num_workers\": %d, "
               "\"versions_published\": %llu, \"completed\": %llu, "
               "\"dropped\": %llu, \"mismatched\": %llu},\n",
               hot_swap.num_workers,
               static_cast<unsigned long long>(hot_swap.versions_published),
               static_cast<unsigned long long>(hot_swap.completed),
               static_cast<unsigned long long>(hot_swap.dropped),
               static_cast<unsigned long long>(hot_swap.mismatched));
  std::fprintf(
      json,
      "  \"shard_replay\": {\"corpus_graphs\": %lld, \"data_shards\": %d, "
      "\"clients\": %d, \"workers\": %d, \"completed\": %llu, "
      "\"mismatched\": %llu, \"throughput_rps\": %.2f, "
      "\"throughput_q1_rps\": %.2f, \"throughput_q3_rps\": %.2f, "
      "\"latency_us\": {\"p50\": %.2f, \"p95\": %.2f, \"p99\": %.2f}, "
      "\"mean_batch_graphs\": %.4f},\n",
      static_cast<long long>(replay.corpus_graphs), replay.data_shards,
      replay.run.config.clients, replay.run.config.num_workers,
      static_cast<unsigned long long>(replay.run.completed),
      static_cast<unsigned long long>(replay.run.mismatched),
      replay.run.throughput_rps, replay.run.throughput_q1_rps,
      replay.run.throughput_q3_rps, replay.run.latency_us.p50,
      replay.run.latency_us.p95, replay.run.latency_us.p99,
      replay.run.mean_batch_graphs);
  std::fprintf(json, "  \"runs\": [\n");
  WriteRunArray(json, runs);
  std::fprintf(json, "  ],\n  \"worker_grid\": [\n");
  WriteRunArray(json, grid);
  std::fprintf(json, "  ],\n  \"grid_best\": [\n");
  WriteRunArray(json, BestPerClientCount(grid));
  std::fprintf(json, "  ],\n  \"slo_sweep\": [\n");
  WriteRunArray(json, slo_runs);
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote %s\n", path);
}

}  // namespace
}  // namespace gradgcl

int main() {
  using namespace gradgcl;

  // Frozen session over the standard bench encoder (GIN, dim 16) and
  // MUTAG-scale graphs — the small-graph regime where per-request
  // overhead matters most, i.e. where batching has to earn its keep.
  TuProfile profile = TuProfileByName("MUTAG");
  profile.num_graphs = 64;
  profile.avg_nodes = 10.0;  // small-graph serving regime
  const std::vector<Graph> graphs = GenerateTuDataset(profile, 7);
  EncoderConfig config;
  config.kind = EncoderKind::kGin;
  config.in_dim = profile.feature_dim;
  config.hidden_dim = 16;
  config.out_dim = 16;
  config.num_layers = 2;
  Rng rng(42);
  GraphEncoder encoder(config, rng);
  const std::unique_ptr<serve::InferenceSession> session =
      serve::InferenceSession::FromEncoder(encoder);

  // Reference embedding per graph for load-level parity checking.
  std::vector<Matrix> refs;
  refs.reserve(graphs.size());
  for (const Graph& g : graphs) {
    refs.push_back(session->EmbedGraphs(std::vector<Graph>{g}));
  }

  // Batching study, one worker (the engine default).
  std::vector<RunConfig> sweep;
  // Baseline: no coalescing — every request is its own batch.
  sweep.push_back({"single_request", 8, 1, 0.0, 1});
  // Client scaling with launch-when-free batching (deadline 0: the
  // worker takes whatever has queued the moment it goes idle).
  for (int clients : {1, 2, 4, 8}) {
    sweep.push_back(
        {"batched_c" + std::to_string(clients), clients, 16, 0.0, 1});
  }
  // Deadline sweep at 8 clients: with every client blocked in the
  // closed loop the queue never reaches max_batch_graphs, so a nonzero
  // deadline stalls each batch for its full wait — the latency /
  // throughput tradeoff the knob buys.
  for (double wait : {50.0, 200.0, 1000.0}) {
    sweep.push_back({"batched_w" + std::to_string(static_cast<int>(wait)), 8,
                     16, wait, 1});
  }

  PrintHeader();
  std::vector<RunResult> runs;
  uint64_t mismatched_total = 0;
  for (const RunConfig& config : sweep) {
    runs.push_back(RunReps(*session, graphs, refs, config));
    mismatched_total += runs.back().mismatched;
    PrintRow(runs.back());
  }

  // Worker grid: the same batching policy at 1, 2 and 4 workers on the
  // one ingress queue, launch-when-free and with a 100us deadline.
  std::vector<RunResult> grid;
  for (double wait : {0.0, 100.0}) {
    for (int workers : {1, 2, 4}) {
      for (int clients : {1, 4, 8, 16}) {
        const RunConfig config{"grid_w" + std::to_string(workers) + "_c" +
                                   std::to_string(clients) + "_d" +
                                   std::to_string(static_cast<int>(wait)),
                               clients, 16, wait, workers};
        grid.push_back(RunReps(*session, graphs, refs, config));
        mismatched_total += grid.back().mismatched;
        PrintRow(grid.back());
      }
    }
  }
  std::printf("best grid cell per client count (median rps):\n");
  for (const RunResult& r : BestPerClientCount(grid)) PrintRow(r);

  // Latency-SLO sweep: p99 vs offered load at a fixed tight batching
  // policy (8-graph batches, 100us deadline, one worker). The closed
  // loop makes client count the offered-load axis.
  std::vector<RunResult> slo_runs;
  for (int clients : {1, 2, 4, 8, 16}) {
    const RunConfig slo{"slo_c" + std::to_string(clients), clients, 8, 100.0,
                        1};
    slo_runs.push_back(RunReps(*session, graphs, refs, slo));
    mismatched_total += slo_runs.back().mismatched;
    PrintRow(slo_runs.back());
  }

  // Shard-replay leg: a larger corpus written through the data
  // pipeline and served straight off the mmap'd shards.
  TuProfile replay_profile = profile;
  replay_profile.num_graphs = 512;
  const std::vector<Graph> replay_corpus =
      GenerateTuDataset(replay_profile, 11);
  const RunConfig replay_config{"shard_replay_c8", 8, 16, 0.0, 1};
  const ShardReplayResult replay =
      RunShardReplay(*session, replay_corpus, replay_config);
  mismatched_total += replay.run.mismatched;
  PrintRow(replay.run);
  std::printf("shard replay: %lld graphs over %d shard files\n",
              static_cast<long long>(replay.corpus_graphs),
              replay.data_shards);

  const HotSwapResult hot_swap = RunHotSwap(graphs, /*num_workers=*/1);
  std::printf(
      "\nhot-swap: %llu versions published under load, %llu completed, "
      "%llu dropped, %llu mismatched (workers=%d)\n",
      static_cast<unsigned long long>(hot_swap.versions_published),
      static_cast<unsigned long long>(hot_swap.completed),
      static_cast<unsigned long long>(hot_swap.dropped),
      static_cast<unsigned long long>(hot_swap.mismatched),
      hot_swap.num_workers);

  double single_rps = 0.0, batched_rps = 0.0;
  for (const RunResult& r : runs) {
    if (r.config.label == "single_request") single_rps = r.throughput_rps;
    if (r.config.label == "batched_c8") batched_rps = r.throughput_rps;
  }
  const double speedup = single_rps > 0.0 ? batched_rps / single_rps : 0.0;
  std::printf("batched vs single-request @ 8 clients: %.2fx\n", speedup);
  if (mismatched_total > 0) {
    std::fprintf(stderr, "FAIL: %llu served embeddings mismatched refs\n",
                 static_cast<unsigned long long>(mismatched_total));
    return 1;
  }
  if (hot_swap.dropped > 0 || hot_swap.mismatched > 0) {
    std::fprintf(stderr,
                 "FAIL: hot-swap leg dropped %llu / mismatched %llu\n",
                 static_cast<unsigned long long>(hot_swap.dropped),
                 static_cast<unsigned long long>(hot_swap.mismatched));
    return 1;
  }

  WriteJson("BENCH_serve.json", config, *session, runs, grid, slo_runs,
            hot_swap, replay, speedup);
  return 0;
}
