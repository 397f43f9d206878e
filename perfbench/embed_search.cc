// embed_search_c2: a graph-similarity service. Two closed-loop clients
// each repeat one request — decode 8 random corpus graphs
// (ShardedDataset::ReadGraph), embed them in one EmbeddingEngine::Embed
// call, and look up the 10 nearest corpus graphs of each in one
// RetrievalEngine::Search call — against engines with one worker each
// and max_wait_micros = 0. Eight graphs a request keep compute, not
// thread hand-offs, the bulk of a request: hand-off latency on a shared
// host swings far more than compute does. The corpus is ZINC-sim in
// mmap shards, embedded at set-up into an int8 IVF index (nlist 1024,
// nprobe 16). Intra-op pool pinned to 1 thread while serving.
//
// Gates: every served embedding must equal, bit for bit, the set-up
// embedding of the same graph, and every neighbor list must equal a
// direct IvfIndex::Search with the same nprobe (checked after the
// window, once per distinct graph, against a hash of each response).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>
#include <unordered_map>

#include "common.h"
#include "common/check.h"
#include "common/parallel.h"
#include "corpus.h"
#include "model_config.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "retrieval/engine.h"
#include "retrieval/flat_index.h"
#include "retrieval/ivf_index.h"
#include "serve/engine.h"
#include "serve/session.h"

namespace perfbench {

namespace {

using gradgcl::Graph;
using gradgcl::Matrix;
using gradgcl::retrieval::Neighbor;

constexpr int kClients = 2;
constexpr int kRequestGraphs = 8;  // graphs per request
constexpr int kTopK = 10;
constexpr int kNprobe = 16;
constexpr int kEmbedBatch = 512;  // set-up corpus embedding batch

struct Scale {
  int corpus_graphs;
  int nlist;
  int recall_queries;
  int setup_reps;
};

Scale ScaleFor(const Options& options) {
  return options.smoke ? Scale{4096, 64, 100, 2} : Scale{100000, 1024, 4000, 3};
}

struct Service {
  Corpus corpus;
  std::unique_ptr<gradgcl::serve::InferenceSession> session;
  Matrix embeddings;  // reference embedding of every corpus graph
  std::unique_ptr<gradgcl::retrieval::IvfIndex> ivf;
  double embed_s = 0.0;
  double ivf_s = 0.0;
};

std::unique_ptr<Service> BuildService(const Options& options,
                                      const Scale& scale,
                                      const std::string& dir) {
  auto service = std::make_unique<Service>();
  service->corpus =
      WriteCorpus(scale.corpus_graphs, DataSeed(options.seed), dir);
  const gradgcl::data::ShardedDataset& dataset = service->corpus.dataset;
  service->embed_s = TimeSeconds([&] {
    gradgcl::Rng init(kModelSeed);
    const gradgcl::GraphEncoder encoder(
        BenchModelConfig(gradgcl::kNumAtomTypes).encoder, init);
    service->session = gradgcl::serve::InferenceSession::FromEncoder(encoder);
    const int n = static_cast<int>(dataset.num_graphs());
    service->embeddings = Matrix::Uninitialized(n, encoder.config().out_dim);
    std::vector<Graph> batch;
    for (int begin = 0; begin < n; begin += kEmbedBatch) {
      const int end = std::min(n, begin + kEmbedBatch);
      batch.resize(end - begin);
      for (int i = begin; i < end; ++i) {
        GRADGCL_CHECK(dataset.ReadGraph(i, &batch[i - begin]));
      }
      const Matrix rows = service->session->EmbedGraphs(batch);
      std::memcpy(service->embeddings.data() +
                      static_cast<int64_t>(begin) * rows.cols(),
                  rows.data(), sizeof(double) * rows.size());
    }
  });
  service->ivf_s = TimeSeconds([&] {
    gradgcl::retrieval::IvfConfig config;
    config.nlist = scale.nlist;
    config.nprobe = kNprobe;
    service->ivf = std::make_unique<gradgcl::retrieval::IvfIndex>(
        gradgcl::retrieval::IvfIndex::Build(service->embeddings, config));
  });
  return service;
}

uint64_t HashNeighbors(const std::vector<Neighbor>& neighbors) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  const auto mix = [&h](const void* p, size_t n) {
    const unsigned char* bytes = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h = (h ^ bytes[i]) * 1099511628211ULL;
  };
  for (const Neighbor& nb : neighbors) {
    mix(&nb.index, sizeof(nb.index));
    mix(&nb.score, sizeof(nb.score));
  }
  return h;
}

// What one client saw in one window.
struct ClientLog {
  std::vector<double> latency_us, read_us, embed_us, search_us;
  std::vector<int64_t> done_ns;  // completion time of each request
  std::vector<std::pair<int64_t, uint64_t>> responses;  // (graph, hash)
  int64_t requests = 0;
  int64_t failed = 0;
  int64_t end_ns = 0;
};

// Runs both clients closed-loop for `seconds`. `traced` additionally
// times each of the three calls.
std::vector<ClientLog> RunWindow(const Service& service,
                                 gradgcl::serve::EmbeddingEngine& embed,
                                 gradgcl::retrieval::RetrievalEngine& search,
                                 const Matrix& reference, double seconds,
                                 bool traced, uint64_t seed_base,
                                 int64_t* start_ns) {
  const int n = static_cast<int>(service.corpus.dataset.num_graphs());
  const int dim = reference.cols();
  std::vector<ClientLog> logs(kClients);
  std::atomic<int> ready{0};
  std::atomic<int64_t> deadline{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientLog& log = logs[c];
      log.latency_us.reserve(1 << 18);
      log.done_ns.reserve(1 << 18);
      log.responses.reserve(1 << 18);
      gradgcl::Rng rng(seed_base + static_cast<uint64_t>(c));
      std::vector<Graph> graphs(kRequestGraphs);
      std::vector<int> ids(kRequestGraphs);
      ready.fetch_add(1);
      while (deadline.load() == 0) std::this_thread::yield();
      const int64_t end = deadline.load();
      int64_t now = NowNs();
      while (now < end) {
        const int64_t t0 = now;
        bool read_ok = true;
        for (int g = 0; g < kRequestGraphs; ++g) {
          ids[g] = rng.UniformInt(n);
          read_ok = service.corpus.dataset.ReadGraph(ids[g], &graphs[g]) &&
                    read_ok;
        }
        const int64_t t1 = traced ? NowNs() : 0;
        const gradgcl::serve::EmbedResult embedded = embed.Embed(graphs);
        const int64_t t2 = traced ? NowNs() : 0;
        bool ok = read_ok && embedded.status == gradgcl::serve::ServeStatus::kOk;
        if (ok) {
          const gradgcl::retrieval::RetrievalResult found =
              search.Search(embedded.embeddings, kTopK);
          ok = found.status == gradgcl::retrieval::RetrievalStatus::kOk;
          for (int g = 0; g < kRequestGraphs; ++g) {
            ok = ok && std::memcmp(embedded.embeddings.data() +
                                       static_cast<int64_t>(g) * dim,
                                   reference.data() +
                                       static_cast<int64_t>(ids[g]) * dim,
                                   sizeof(double) * dim) == 0;
            if (found.status == gradgcl::retrieval::RetrievalStatus::kOk) {
              log.responses.emplace_back(ids[g],
                                         HashNeighbors(found.neighbors[g]));
            }
          }
        }
        now = NowNs();
        ++log.requests;
        if (!ok) ++log.failed;
        log.latency_us.push_back(static_cast<double>(now - t0) * 1e-3);
        log.done_ns.push_back(now);
        if (traced) {
          log.read_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
          log.embed_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
          log.search_us.push_back(static_cast<double>(now - t2) * 1e-3);
        }
      }
      log.end_ns = now;
    });
  }
  while (ready.load() < kClients) std::this_thread::yield();
  *start_ns = NowNs();
  deadline.store(*start_ns + static_cast<int64_t>(seconds * 1e9));
  for (std::thread& client : clients) client.join();
  return logs;
}

// One window cut into equal time slices by request completion: each
// slice's request rate and median latency. The reported values are
// medians over slices, so a burst of outside load on the host moves a
// minority of slices, not the result.
struct SliceStats {
  double rate = 0.0, p50 = 0.0;
};

SliceStats SliceMedians(const std::vector<ClientLog>& logs, int64_t start_ns,
                        double seconds, int slices) {
  std::vector<std::vector<double>> latency(slices);
  const double slice_ns = seconds * 1e9 / slices;
  for (const ClientLog& log : logs) {
    for (size_t i = 0; i < log.done_ns.size(); ++i) {
      const int s = static_cast<int>(
          static_cast<double>(log.done_ns[i] - start_ns) / slice_ns);
      latency[std::clamp(s, 0, slices - 1)].push_back(log.latency_us[i]);
    }
  }
  std::vector<double> rate, p50;
  for (const std::vector<double>& slice : latency) {
    rate.push_back(static_cast<double>(slice.size()) * 1e9 / slice_ns);
    p50.push_back(Percentile(slice, 50.0));
  }
  return {Median(rate), Median(p50)};
}

template <typename Field>
std::vector<double> Gather(const std::vector<ClientLog>& logs, Field field) {
  std::vector<double> out;
  for (const ClientLog& log : logs) {
    const std::vector<double>& v = log.*field;
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

std::vector<double> SpanMicros(const std::vector<gradgcl::obs::TraceEvent>& ev,
                               const char* name) {
  std::vector<double> out;
  for (const gradgcl::obs::TraceEvent& e : ev) {
    if (e.name != nullptr && std::strcmp(e.name, name) == 0) {
      out.push_back(static_cast<double>(e.duration_ns) * 1e-3);
    }
  }
  return out;
}

}  // namespace

void RunEmbedSearch(const Options& options, Report* report) {
  const Scale scale = ScaleFor(options);
  const std::string dir = options.work_dir + "/zinc_search";

  std::unique_ptr<Service> service;
  std::vector<double> generate_s, write_s, embed_s, ivf_s;
  const double setup_s = MedianSetup<std::unique_ptr<Service>>(
      scale.setup_reps, [&] { std::filesystem::remove_all(dir); },
      [&] {
        auto s = BuildService(options, scale, dir);
        generate_s.push_back(s->corpus.generate_s);
        write_s.push_back(s->corpus.write_s);
        embed_s.push_back(s->embed_s);
        ivf_s.push_back(s->ivf_s);
        return s;
      },
      &service);
  report->Set("setup_s", setup_s);
  report->Set("datasets.generate_s", Median(generate_s));
  report->Set("data.shard_write_s", Median(write_s));
  report->Set("serve.embed_corpus_s", Median(embed_s));
  report->Set("retrieval.ivf_build_s", Median(ivf_s));

  const int n = static_cast<int>(service->embeddings.rows());
  const int dim = service->embeddings.cols();
  // The reference served embeddings are compared against; --corrupt
  // served_embedding flips one bit of the row the first request reads.
  Matrix reference = service->embeddings;
  if (options.corrupt == Corrupt::kServedEmbedding) {
    const int first = gradgcl::Rng(ClientSeed(options.seed, 0)).UniformInt(n);
    reference.data()[static_cast<int64_t>(first) * dim] = std::nextafter(
        reference.data()[static_cast<int64_t>(first) * dim], 1e300);
  }

  gradgcl::SetNumThreads(1);
  gradgcl::serve::ServeOptions serve_options;
  serve_options.num_workers = 1;
  serve_options.max_wait_micros = 0.0;
  gradgcl::retrieval::RetrievalOptions search_options;
  search_options.num_workers = 1;
  search_options.max_wait_micros = 0.0;
  search_options.nprobe = kNprobe;
  std::vector<ClientLog> untraced, traced;
  SliceStats untraced_stats, traced_stats;
  gradgcl::obs::MetricsSnapshot before, after;
  {
    gradgcl::serve::EmbeddingEngine embed(*service->session, serve_options);
    gradgcl::retrieval::RetrievalEngine search(*service->ivf, search_options);
    int64_t start = 0;
    // Warm-up: page in the shards and the index, fill the pools.
    RunWindow(*service, embed, search, reference, options.smoke ? 0.05 : 0.5,
              false, ClientSeed(options.seed, 100), &start);
    const double window =
        options.trace ? options.seconds / 2 : options.seconds;
    // Quarter-second slices of about 900 requests each: outside load that
    // lasts a fraction of a second spoils one slice, not a whole second.
    const int slices = std::max(1, static_cast<int>(std::lround(window * 4)));
    untraced = RunWindow(*service, embed, search, reference, window, false,
                         ClientSeed(options.seed, 0), &start);
    untraced_stats = SliceMedians(untraced, start, window, slices);
    if (options.trace) {
      before = gradgcl::obs::MetricsRegistry::Instance().Snapshot();
      gradgcl::obs::ClearTrace();
      gradgcl::obs::SetTracingEnabled(true);
      traced = RunWindow(*service, embed, search, reference, window, true,
                         ClientSeed(options.seed, 200), &start);
      gradgcl::obs::SetTracingEnabled(false);
      after = gradgcl::obs::MetricsRegistry::Instance().Snapshot();
      traced_stats = SliceMedians(traced, start, window, slices);
    }
  }
  gradgcl::SetNumThreads(0);  // verification may use the whole machine

  // Neighbor gate: one direct search per distinct graph, compared with
  // the hash of every response for that graph.
  std::unordered_map<int64_t, uint64_t> expected;
  for (const auto* windows : {&untraced, &traced}) {
    for (const ClientLog& log : *windows) {
      for (const auto& [id, hash] : log.responses) expected.emplace(id, 0);
    }
  }
  std::vector<int64_t> ids;
  ids.reserve(expected.size());
  for (const auto& [id, hash] : expected) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  std::vector<uint64_t> hashes(ids.size());
  std::vector<double> ivf_us(ids.size());
  gradgcl::ParallelFor(0, static_cast<int64_t>(ids.size()), 64,
                       [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const int64_t t0 = NowNs();
      std::vector<Neighbor> direct = service->ivf->Search(
          service->embeddings.data() + ids[i] * dim, kTopK, kNprobe);
      ivf_us[i] = static_cast<double>(NowNs() - t0) * 1e-3;
      if (options.corrupt == Corrupt::kNeighbors && i == 0) {
        direct[0].index ^= 1;
      }
      hashes[i] = HashNeighbors(direct);
    }
  });
  for (size_t i = 0; i < ids.size(); ++i) expected[ids[i]] = hashes[i];
  int64_t neighbor_mismatches = 0;
  int64_t embed_failures = 0;
  for (const auto* windows : {&untraced, &traced}) {
    for (const ClientLog& log : *windows) {
      report->attempted += log.requests;
      embed_failures += log.failed;
      for (const auto& [id, hash] : log.responses) {
        if (expected[id] != hash) ++neighbor_mismatches;
      }
    }
  }
  report->Gate(embed_failures == 0,
               "embed_search_c2: failed request or served embedding differs "
               "from its reference",
               embed_failures);
  report->Gate(neighbor_mismatches == 0,
               "embed_search_c2: neighbor list differs from direct "
               "IvfIndex::Search",
               neighbor_mismatches);

  // Quality guard, outside every timed window: recall@10 of the served
  // index against exact f64 search on a fixed query sample.
  const gradgcl::retrieval::FlatIndex exact =
      gradgcl::retrieval::FlatIndex::BuildExact(service->embeddings);
  gradgcl::Rng query_rng(DataSeed(options.seed) + 7);
  Matrix queries(scale.recall_queries, dim);
  for (int q = 0; q < scale.recall_queries; ++q) {
    queries.SetRow(q, service->embeddings.Row(query_rng.UniformInt(n)));
  }
  const auto truth = exact.SearchBatch(queries, kTopK);
  const auto approx = service->ivf->SearchBatch(queries, kTopK, kNprobe);
  double hits = 0.0;
  for (int q = 0; q < scale.recall_queries; ++q) {
    for (const Neighbor& a : approx[q]) {
      for (const Neighbor& t : truth[q]) hits += a.index == t.index ? 1 : 0;
    }
  }
  const double recall = hits / (static_cast<double>(scale.recall_queries) *
                                kTopK);

  const double rps = untraced_stats.rate;
  report->Set("throughput_per_s", rps);
  report->Set("latency_p50_us", untraced_stats.p50);
  report->Set("quality_loss", 1.0 - recall);
  const std::vector<double> latency_us =
      Gather(untraced, &ClientLog::latency_us);
  std::printf("embed_search_c2: %lld requests (median %.0f req/s), "
              "%zu latency samples, p90 %.0f us, p99 %.0f us, recall@10 "
              "%.4f over %d queries, %zu graphs re-searched\n",
              static_cast<long long>(report->attempted), rps,
              latency_us.size(), Percentile(latency_us, 90.0),
              Percentile(latency_us, 99.0), recall, scale.recall_queries,
              ids.size());
  if (!options.trace) return;

  const std::vector<gradgcl::obs::TraceEvent> events =
      gradgcl::obs::SnapshotTraceEvents();
  const std::vector<double> embed_us = Gather(traced, &ClientLog::embed_us);
  const std::vector<double> search_us = Gather(traced, &ClientLog::search_us);
  const std::vector<double> serve_exec = SpanMicros(events, "serve/batch");
  const std::vector<double> search_exec = SpanMicros(events, "retrieval/batch");
  report->SetPercentiles("data.read_graph_us",
                         Gather(traced, &ClientLog::read_us));
  report->SetPercentiles("serve.embed_us", embed_us);
  report->SetPercentiles("serve.execute_us", serve_exec);
  report->SetPercentiles("retrieval.search_us", search_us);
  report->SetPercentiles("retrieval.execute_us", search_exec);
  report->SetPercentiles("retrieval.ivf_search_us", ivf_us);
  // Ingress: the client-side call minus the batch it rode in, taken at
  // equal percentiles (batch spans are not matched to requests).
  for (const char* p : {".p50", ".p99"}) {
    report->Set(std::string("serve.ingress_us") + p,
                report->metrics["serve.embed_us" + std::string(p)] -
                    report->metrics["serve.execute_us" + std::string(p)]);
    report->Set(std::string("retrieval.ingress_us") + p,
                report->metrics["retrieval.search_us" + std::string(p)] -
                    report->metrics["retrieval.execute_us" + std::string(p)]);
  }
  const auto delta = [&](const char* name) {
    return static_cast<double>(after.counter(name) - before.counter(name));
  };
  report->Set("serve.batch_graphs_mean",
              delta("serve/graphs") / std::max(1.0, delta("serve/batches")));
  report->Set("retrieval.batch_queries_mean",
              delta("retrieval/queries") /
                  std::max(1.0, delta("retrieval/batches")));
  report->Set("serve.steals", delta("serve/steals"));
  report->Set("retrieval.steals", delta("retrieval/steals"));
  report->Set("obs.trace_overhead_pct",
              (rps / traced_stats.rate - 1.0) * 100.0);
}

}  // namespace perfbench
