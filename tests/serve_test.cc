// Tests for the serving subsystem (src/serve/): bitwise parity of the
// tape-free InferenceSession forward against the trainer-side encoder
// (graph + node paths, snapshot load path) across worker counts, SIMD
// modes, and pooling modes; engine parity at 1, 2, and 4 workers;
// admission, shutdown, and oversized requests; ModelRegistry versioning
// and RCU hot-swap under load (>= 100 snapshot swaps, zero dropped /
// version-mismatched requests, at 1, 2, and 4 workers); multi-model
// serving; and multi-producer hammers intended to run under TSAN
// (ctest -L serve on the build-tsan tree). The ingress itself is
// tested directly in batch_queue_test.cc.

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "datasets/tu_synthetic.h"
#include "nn/encoders.h"
#include "nn/serialize.h"
#include "serve/engine.h"
#include "serve/registry.h"
#include "serve/session.h"
#include "tensor/pool.h"
#include "tensor/simd.h"

namespace gradgcl {
namespace {

using serve::EmbeddingEngine;
using serve::EmbedResult;
using serve::InferenceSession;
using serve::ModelHandle;
using serve::ModelRegistry;
using serve::ModelSnapshot;
using serve::ServeOptions;
using serve::ServeStatus;
using serve::ServeStatusName;

std::vector<Graph> TestGraphs(int n) {
  TuProfile profile = TuProfileByName("MUTAG");
  profile.num_graphs = n;
  return GenerateTuDataset(profile, 7);
}

bool BitIdentical(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  if (a.empty()) return true;
  return std::memcmp(a.data(), b.data(),
                     sizeof(double) * static_cast<size_t>(a.size())) == 0;
}

// Saves and restores the runtime mode switches the parity tests sweep.
struct ModeGuard {
  bool simd = simd::Enabled();
  bool pooling = PoolingEnabled();
  ~ModeGuard() {
    simd::SetEnabled(simd);
    SetPoolingEnabled(pooling);
  }
};

EncoderConfig TestConfig(EncoderKind kind, ReadoutKind readout) {
  EncoderConfig config;
  config.kind = kind;
  config.readout = readout;
  config.in_dim = 8;
  config.hidden_dim = 16;
  config.out_dim = 12;
  config.num_layers = 2;
  return config;
}

// --- InferenceSession parity -------------------------------------------------

TEST(ServeSessionTest, GraphEmbeddingsBitIdenticalToEncoder) {
  ModeGuard guard;
  const std::vector<Graph> graphs = TestGraphs(12);
  const GraphBatch batch = MakeBatch(graphs);
  for (EncoderKind kind : {EncoderKind::kGcn, EncoderKind::kGin}) {
    for (ReadoutKind readout : {ReadoutKind::kMean, ReadoutKind::kSum}) {
      Rng rng(11);
      GraphEncoder encoder(TestConfig(kind, readout), rng);
      const std::unique_ptr<InferenceSession> session =
          InferenceSession::FromEncoder(encoder);
      ASSERT_NE(session, nullptr);
      for (bool simd_on : {false, true}) {
        for (bool pooled : {false, true}) {
          simd::SetEnabled(simd_on);
          SetPoolingEnabled(pooled);
          const Matrix ref = encoder.ForwardGraphs(batch).value();
          const Matrix got = session->EmbedGraphs(batch);
          EXPECT_TRUE(BitIdentical(got, ref))
              << "kind=" << static_cast<int>(kind)
              << " readout=" << static_cast<int>(readout)
              << " simd=" << simd_on << " pooled=" << pooled;
        }
      }
    }
  }
}

TEST(ServeSessionTest, NodeEmbeddingsBitIdenticalToEncoder) {
  ModeGuard guard;
  const std::vector<Graph> graphs = TestGraphs(6);
  const GraphBatch batch = MakeBatch(graphs);
  for (EncoderKind kind : {EncoderKind::kGcn, EncoderKind::kGin}) {
    Rng rng(13);
    GraphEncoder encoder(TestConfig(kind, ReadoutKind::kMean), rng);
    const std::unique_ptr<InferenceSession> session =
        InferenceSession::FromEncoder(encoder);
    ASSERT_NE(session, nullptr);
    for (bool simd_on : {false, true}) {
      for (bool pooled : {false, true}) {
        simd::SetEnabled(simd_on);
        SetPoolingEnabled(pooled);
        const Matrix ref = encoder.ForwardNodes(batch).value();
        const Matrix got = session->EmbedNodes(batch);
        EXPECT_TRUE(BitIdentical(got, ref));
      }
    }
  }
}

TEST(ServeSessionTest, SnapshotLoadMatchesLiveEncoder) {
  const EncoderConfig config = TestConfig(EncoderKind::kGin, ReadoutKind::kSum);
  Rng rng(17);
  GraphEncoder encoder(config, rng);
  const std::string path =
      std::string(::testing::TempDir()) + "/serve_snapshot.ggcl";
  ASSERT_TRUE(SaveModule(path, encoder));

  const std::unique_ptr<InferenceSession> loaded =
      InferenceSession::Load(config, path);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->NumScalarParameters(), encoder.NumScalarParameters());

  const std::vector<Graph> graphs = TestGraphs(8);
  const GraphBatch batch = MakeBatch(graphs);
  EXPECT_TRUE(BitIdentical(loaded->EmbedGraphs(batch),
                           encoder.ForwardGraphs(batch).value()));
  std::remove(path.c_str());
}

TEST(ServeSessionTest, LoadRejectsWrongConfigAndCorruptSnapshot) {
  const EncoderConfig config = TestConfig(EncoderKind::kGcn, ReadoutKind::kMean);
  Rng rng(19);
  GraphEncoder encoder(config, rng);
  const std::string path =
      std::string(::testing::TempDir()) + "/serve_bad_snapshot.ggcl";
  ASSERT_TRUE(SaveModule(path, encoder));

  // Wrong architecture for the same snapshot: shape mismatch -> nullptr.
  EncoderConfig wider = config;
  wider.hidden_dim = 32;
  EXPECT_EQ(InferenceSession::Load(wider, path), nullptr);
  EncoderConfig gin = config;
  gin.kind = EncoderKind::kGin;
  EXPECT_EQ(InferenceSession::Load(gin, path), nullptr);

  // Missing and corrupt files -> nullptr, no abort.
  EXPECT_EQ(InferenceSession::Load(config, path + ".missing"), nullptr);
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_SET);
  std::fwrite("XXXX", 1, 4, f);
  std::fclose(f);
  EXPECT_EQ(InferenceSession::Load(config, path), nullptr);
  std::remove(path.c_str());
}

TEST(ServeSessionTest, FromStateRejectsShapeMismatch) {
  const EncoderConfig config = TestConfig(EncoderKind::kGcn, ReadoutKind::kMean);
  Rng rng(23);
  GraphEncoder encoder(config, rng);
  std::vector<Matrix> state = encoder.StateCopy();
  state.back() = Matrix(3, 3, 0.0);  // wrong bias shape
  EXPECT_EQ(InferenceSession::FromState(config, std::move(state)), nullptr);
  EXPECT_EQ(InferenceSession::FromState(config, {}), nullptr);
}

// --- EmbeddingEngine ---------------------------------------------------------

// Fixture pieces shared by the engine tests: a frozen session plus
// per-request reference embeddings computed directly (no engine).
struct EngineHarness {
  EngineHarness()
      : graphs(TestGraphs(24)),
        session([this] {
          Rng rng(29);
          GraphEncoder encoder(
              TestConfig(EncoderKind::kGin, ReadoutKind::kMean), rng);
          return InferenceSession::FromEncoder(encoder);
        }()) {}

  // Request i = graphs[i % n .. i % n + size) (wrapping), so distinct
  // requests overlap and multi-graph requests exercise row scatter.
  std::vector<Graph> RequestGraphs(int i, int size) const {
    std::vector<Graph> request;
    for (int k = 0; k < size; ++k) {
      request.push_back(graphs[(i + k) % graphs.size()]);
    }
    return request;
  }

  std::vector<Graph> graphs;
  std::unique_ptr<InferenceSession> session;
};

TEST(ServeEngineTest, ParityAcrossWorkerCounts) {
  EngineHarness h;
  // 12 requests of mixed sizes; references computed without the engine.
  std::vector<std::vector<Graph>> requests;
  std::vector<Matrix> refs;
  for (int i = 0; i < 12; ++i) {
    requests.push_back(h.RequestGraphs(i, 1 + i % 3));
    refs.push_back(h.session->EmbedGraphs(requests.back()));
  }
  for (int workers : {1, 2, 4}) {
    ServeOptions opts;
    opts.num_workers = workers;
    opts.max_batch_graphs = 8;
    opts.max_wait_micros = 500.0;
    EmbeddingEngine engine(*h.session, opts);
    // Concurrent clients so batches actually coalesce.
    std::vector<Matrix> got(requests.size());
    std::vector<ServeStatus> status(requests.size(), ServeStatus::kOk);
    std::vector<uint64_t> versions(requests.size(), 0);
    std::vector<std::thread> clients;
    clients.reserve(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      clients.emplace_back([&, i] {
        EmbedResult r = engine.Embed(requests[i]);
        status[i] = r.status;
        versions[i] = r.model_version;
        got[i] = std::move(r.embeddings);
      });
    }
    for (std::thread& t : clients) t.join();
    engine.Shutdown();
    for (size_t i = 0; i < requests.size(); ++i) {
      ASSERT_EQ(status[i], ServeStatus::kOk) << "workers=" << workers;
      EXPECT_TRUE(BitIdentical(got[i], refs[i]))
          << "workers=" << workers << " request=" << i;
      // The legacy constructor publishes the session as version 1 of
      // model "default"; every result must carry that tag.
      EXPECT_EQ(versions[i], 1u);
    }
  }
}

TEST(ServeEngineTest, CoalescedBatchMatchesPerRequestResults) {
  EngineHarness h;
  ServeOptions opts;
  opts.num_workers = 0;  // manual pump: batch composition is exact
  opts.max_batch_graphs = 64;
  EmbeddingEngine engine(*h.session, opts);

  std::vector<std::vector<Graph>> requests;
  for (int i = 0; i < 5; ++i) requests.push_back(h.RequestGraphs(3 * i, 2));
  std::vector<Matrix> got(requests.size());
  std::vector<std::thread> clients;
  for (size_t i = 0; i < requests.size(); ++i) {
    clients.emplace_back(
        [&, i] { got[i] = engine.Embed(requests[i]).embeddings; });
  }
  // Wait until every request is queued, then run them as ONE batch.
  while (engine.QueueDepth() < 10) std::this_thread::yield();
  EXPECT_TRUE(engine.RunOneBatch());
  EXPECT_FALSE(engine.RunOneBatch());  // queue drained in one batch
  for (std::thread& t : clients) t.join();
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_TRUE(
        BitIdentical(got[i], h.session->EmbedGraphs(requests[i])));
  }
  engine.Shutdown();
}

TEST(ServeEngineTest, OversizedRequestRunsAlone) {
  EngineHarness h;
  ServeOptions opts;
  opts.num_workers = 1;
  opts.max_batch_graphs = 4;
  EmbeddingEngine engine(*h.session, opts);
  const std::vector<Graph> big = h.RequestGraphs(0, 9);  // > max_batch_graphs
  EmbedResult r = engine.Embed(big);
  ASSERT_EQ(r.status, ServeStatus::kOk);
  EXPECT_EQ(r.embeddings.rows(), 9);
  EXPECT_TRUE(BitIdentical(r.embeddings, h.session->EmbedGraphs(big)));
}

TEST(ServeEngineTest, AdmissionControlRejectsWhenFull) {
  EngineHarness h;
  ServeOptions opts;
  opts.num_workers = 0;  // nothing drains: the queue fills determin.
  opts.max_queue_graphs = 2;
  EmbeddingEngine engine(*h.session, opts);

  const std::vector<Graph> one = h.RequestGraphs(0, 1);
  std::thread client([&] {
    EmbedResult r = engine.Embed(one);
    EXPECT_EQ(r.status, ServeStatus::kOk);
  });
  while (engine.QueueDepth() < 1) std::this_thread::yield();

  // 1 queued + 2 requested > max_queue_graphs -> immediate rejection.
  EmbedResult rejected = engine.Embed(h.RequestGraphs(1, 2));
  EXPECT_EQ(rejected.status, ServeStatus::kOverloaded);
  EXPECT_TRUE(rejected.embeddings.empty());

  // Exactly at capacity is admitted (pump both through).
  std::thread client2([&] {
    EXPECT_EQ(engine.Embed(h.RequestGraphs(2, 1)).status, ServeStatus::kOk);
  });
  while (engine.QueueDepth() < 2) std::this_thread::yield();
  while (engine.RunOneBatch()) {
  }
  client.join();
  client2.join();
  engine.Shutdown();
}

TEST(ServeEngineTest, ShutdownDrainsPendingRequests) {
  EngineHarness h;
  ServeOptions opts;
  opts.num_workers = 0;
  EmbeddingEngine engine(*h.session, opts);
  const std::vector<Graph> req = h.RequestGraphs(0, 3);
  std::thread client([&] {
    EmbedResult r = engine.Embed(req);
    EXPECT_EQ(r.status, ServeStatus::kOk);
    EXPECT_TRUE(BitIdentical(r.embeddings, h.session->EmbedGraphs(req)));
  });
  while (engine.QueueDepth() < 3) std::this_thread::yield();
  engine.Shutdown();  // drain mode: pending work completes
  client.join();
  // After shutdown, admission is closed.
  EXPECT_EQ(engine.Embed(req).status, ServeStatus::kShutdown);
}

TEST(ServeEngineTest, ShutdownCancelsPendingRequestsWhenConfigured) {
  EngineHarness h;
  ServeOptions opts;
  opts.num_workers = 0;
  opts.cancel_pending_on_shutdown = true;
  EmbeddingEngine engine(*h.session, opts);
  const std::vector<Graph> req = h.RequestGraphs(0, 2);
  std::thread client([&] {
    EmbedResult r = engine.Embed(req);
    EXPECT_EQ(r.status, ServeStatus::kShutdown);
    EXPECT_TRUE(r.embeddings.empty());
  });
  while (engine.QueueDepth() < 2) std::this_thread::yield();
  engine.Shutdown();
  client.join();
}

TEST(ServeEngineTest, StatusNamesAreStable) {
  EXPECT_STREQ(ServeStatusName(ServeStatus::kOk), "ok");
  EXPECT_STREQ(ServeStatusName(ServeStatus::kOverloaded), "overloaded");
  EXPECT_STREQ(ServeStatusName(ServeStatus::kShutdown), "shutdown");
  EXPECT_STREQ(ServeStatusName(ServeStatus::kUnknownModel), "unknown_model");
}

// Multi-producer hammer for TSAN: 8 client threads submit mixed-size
// requests against a small queue (forcing kOverloaded) while Shutdown
// lands mid-flight (forcing kShutdown cancellations). Every kOk result
// must still be bit-identical to the direct forward.
TEST(ServeEngineTest, ConcurrentHammerUnderShutdownAndOverload) {
  EngineHarness h;
  // Per-(start,size) references, computed up front (sizes 1..3).
  std::vector<std::vector<Matrix>> refs(h.graphs.size());
  for (size_t i = 0; i < h.graphs.size(); ++i) {
    for (int size = 1; size <= 3; ++size) {
      refs[i].push_back(
          h.session->EmbedGraphs(h.RequestGraphs(static_cast<int>(i), size)));
    }
  }
  ServeOptions opts;
  opts.num_workers = 4;
  opts.max_batch_graphs = 8;
  opts.max_wait_micros = 50.0;
  opts.max_queue_graphs = 16;  // small: drives overload rejections
  opts.cancel_pending_on_shutdown = true;
  EmbeddingEngine engine(*h.session, opts);

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 25;
  std::atomic<int> ok{0}, overloaded{0}, shutdown{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const int start = (c * kRequestsPerClient + r) %
                          static_cast<int>(h.graphs.size());
        const int size = 1 + (c + r) % 3;
        const std::vector<Graph> request = h.RequestGraphs(start, size);
        EmbedResult result = engine.Embed(request);
        switch (result.status) {
          case ServeStatus::kOk:
            EXPECT_TRUE(
                BitIdentical(result.embeddings, refs[start][size - 1]));
            ok.fetch_add(1);
            break;
          case ServeStatus::kOverloaded:
            EXPECT_TRUE(result.embeddings.empty());
            overloaded.fetch_add(1);
            break;
          case ServeStatus::kShutdown:
            EXPECT_TRUE(result.embeddings.empty());
            shutdown.fetch_add(1);
            break;
          case ServeStatus::kUnknownModel:
            ADD_FAILURE() << "default model cannot be unknown";
            break;
        }
      }
    });
  }
  // Let the fleet run, then shut down mid-flight.
  while (ok.load() + overloaded.load() < kClients * kRequestsPerClient / 2) {
    std::this_thread::yield();
  }
  engine.Shutdown();
  for (std::thread& t : clients) t.join();
  EXPECT_GT(ok.load(), 0);
  EXPECT_EQ(ok.load() + overloaded.load() + shutdown.load(),
            kClients * kRequestsPerClient);
}

// --- ModelRegistry + hot-swap ------------------------------------------------

std::shared_ptr<const InferenceSession> SessionFromSeed(uint64_t seed) {
  Rng rng(seed);
  GraphEncoder encoder(TestConfig(EncoderKind::kGin, ReadoutKind::kMean), rng);
  return InferenceSession::FromEncoder(encoder);
}

TEST(ModelRegistryTest, PublishFindVersionsAndRcuPinning) {
  ModelRegistry registry;
  EXPECT_EQ(registry.Find("m"), nullptr);

  const std::shared_ptr<const InferenceSession> s0 = SessionFromSeed(101);
  const std::shared_ptr<const InferenceSession> s1 = SessionFromSeed(102);
  EXPECT_EQ(registry.Publish("m", s0), 1u);
  ModelHandle* handle = registry.Find("m");
  ASSERT_NE(handle, nullptr);
  EXPECT_EQ(handle->name(), "m");
  EXPECT_EQ(handle->CurrentVersion(), 1u);

  // RCU pinning: a reader holding the old snapshot keeps it intact
  // across a Publish; new readers see the new version.
  const std::shared_ptr<const ModelSnapshot> pinned = handle->Acquire();
  EXPECT_EQ(registry.Publish("m", s1), 2u);
  EXPECT_EQ(handle->CurrentVersion(), 2u);
  EXPECT_EQ(pinned->version, 1u);
  EXPECT_EQ(pinned->session.get(), s0.get());
  EXPECT_EQ(handle->Acquire()->session.get(), s1.get());
  // Handles are stable across publishes.
  EXPECT_EQ(registry.Find("m"), handle);

  // Versions are per name.
  EXPECT_EQ(registry.Publish("other", s0), 1u);
  const std::vector<std::string> names = registry.ModelNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "m");
  EXPECT_EQ(names[1], "other");
}

// The acceptance test for hot-swap: >= 100 snapshot swaps land while
// clients hammer the engine, and every single request completes (zero
// dropped) with embeddings memcmp-equal to the forward of the exact
// version its result is tagged with (zero version-mismatched) — at 1,
// 2, and 4 workers.
TEST(ServeEngineTest, HotSwapUnderLoadZeroDroppedZeroMismatched) {
  constexpr int kStates = 3;    // distinct parameter sets cycled as versions
  constexpr int kSwaps = 120;   // >= 100 swaps under load
  const std::vector<Graph> graphs = TestGraphs(12);
  std::vector<std::shared_ptr<const InferenceSession>> sessions;
  std::vector<std::vector<Matrix>> refs(kStates);  // [state][graph]
  for (int s = 0; s < kStates; ++s) {
    sessions.push_back(SessionFromSeed(200 + s));
    for (const Graph& g : graphs) {
      refs[s].push_back(sessions[s]->EmbedGraphs(std::vector<Graph>{g}));
    }
  }
  for (int workers : {1, 2, 4}) {
    ModelRegistry registry;
    registry.Publish("live", sessions[0]);  // version 1 = state 0
    ServeOptions opts;
    opts.num_workers = workers;
    opts.max_batch_graphs = 8;
    opts.max_wait_micros = 0.0;
    opts.max_queue_graphs = 1 << 20;  // must never trip: zero drops required
    EmbeddingEngine engine(registry, "live", opts);

    std::atomic<bool> swapping_done{false};
    std::thread swapper([&] {
      // Version v serves parameter state (v - 1) % kStates.
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
            dropped.fetch_add(1);
            continue;
          }
          completed.fetch_add(1);
          const bool version_ok =
              r.model_version >= 1 &&
              r.model_version <= static_cast<uint64_t>(1 + kSwaps) &&
              r.model_name == "live";
          const size_t state = static_cast<size_t>((r.model_version - 1)) %
                               static_cast<size_t>(kStates);
          if (!version_ok || !BitIdentical(r.embeddings, refs[state][g])) {
            mismatched.fetch_add(1);
          }
        }
      });
    }
    swapper.join();
    for (std::thread& t : clients) t.join();
    engine.Shutdown();
    EXPECT_EQ(registry.Find("live")->CurrentVersion(),
              static_cast<uint64_t>(1 + kSwaps));
    EXPECT_EQ(dropped.load(), 0u) << "workers=" << workers;
    EXPECT_EQ(mismatched.load(), 0u) << "workers=" << workers;
    EXPECT_GT(completed.load(), 0u) << "workers=" << workers;
  }
}

// One engine, several registered models: batches never mix models,
// every result carries the right tag, and unknown names are rejected
// without queueing.
TEST(ServeEngineTest, MultiModelServingKeepsModelsSeparate) {
  const std::vector<Graph> graphs = TestGraphs(8);
  ModelRegistry registry;
  const std::shared_ptr<const InferenceSession> sa = SessionFromSeed(301);
  const std::shared_ptr<const InferenceSession> sb = SessionFromSeed(302);
  registry.Publish("a", sa);
  registry.Publish("b", sb);
  std::vector<Matrix> refs_a, refs_b;
  for (const Graph& g : graphs) {
    refs_a.push_back(sa->EmbedGraphs(std::vector<Graph>{g}));
    refs_b.push_back(sb->EmbedGraphs(std::vector<Graph>{g}));
  }

  ServeOptions opts;
  opts.num_workers = 1;
  opts.max_batch_graphs = 16;
  opts.max_wait_micros = 100.0;  // encourage cross-request coalescing
  EmbeddingEngine engine(registry, "a", opts);

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 10;
  std::atomic<uint64_t> bad{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const bool use_b = c % 2 == 1;
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const size_t g = (static_cast<size_t>(c) + r) % graphs.size();
        const std::vector<Graph> request{graphs[g]};
        // Even clients use the default model ("a"), odd ones name "b".
        const EmbedResult result =
            use_b ? engine.Embed("b", request) : engine.Embed(request);
        const std::vector<Matrix>& refs = use_b ? refs_b : refs_a;
        if (result.status != ServeStatus::kOk ||
            result.model_name != (use_b ? "b" : "a") ||
            result.model_version != 1 ||
            !BitIdentical(result.embeddings, refs[g])) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(bad.load(), 0u);

  const EmbedResult unknown = engine.Embed("nope", {graphs[0]});
  EXPECT_EQ(unknown.status, ServeStatus::kUnknownModel);
  EXPECT_TRUE(unknown.embeddings.empty());
  EXPECT_EQ(engine.QueueDepth(), 0);
  engine.Shutdown();
}

}  // namespace
}  // namespace gradgcl
