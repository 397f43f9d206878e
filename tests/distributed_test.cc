// Test battery for deterministic data-parallel training
// (src/distributed/):
//
//   1. Comm ring — Broadcast from any root, Barrier, typed failure
//      statuses (timeout, protocol, abort) on both transports.
//   2. Ring all-reduce — matches the fixed pairwise-tree reference
//      bit-for-bit at every world size (including non-power-of-two and
//      indivisible lengths); bucketing never changes a bit; aligned
//      sub-blocks of the tree compose (the property that makes
//      rank-local partials W-invariant).
//   3. Data-parallel training — 2- and 4-rank runs are bit-identical
//      (losses memcmp, final checkpoint file memcmp) to the
//      single-process run over >= 50 optimizer steps on both
//      transports; A = 1, W = 1 reproduces TrainGraphSsl exactly; the
//      streamed path reproduces the in-RAM path; GRADGCL_DIST_* env
//      knobs resolve and reshape the world (the TSAN verify legs run
//      this battery at ranks 2 and 4 on both backends).
//   4. Checkpoint/resume — "GGCK" round-trip preserves every field; a
//      byte-patched corruption battery rejects with a clean false and
//      ZERO heap allocations (the data_test idiom); resuming at step k
//      — mid-epoch, at an epoch boundary, and at a different world
//      size — is bit-identical to the uninterrupted run.
//   5. Fault injection — a rank aborted mid-step surfaces a typed
//      error on every rank within the timeout, with no hang and no
//      partial parameter update (every rank's parameters equal a clean
//      run stopped at its last completed step).

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datasets/tu_synthetic.h"
#include "distributed/checkpoint.h"
#include "distributed/comm.h"
#include "distributed/comm_socket.h"
#include "distributed/data_parallel.h"
#include "distributed/ring_allreduce.h"
#include "models/graphcl.h"
#include "train/trainer.h"

#include "heap_counter.h"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define GRADGCL_TEST_UNDER_SANITIZER 1
#endif
#endif
#if !defined(GRADGCL_TEST_UNDER_SANITIZER) && \
    (defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__))
#define GRADGCL_TEST_UNDER_SANITIZER 1
#endif

namespace gradgcl {
namespace dist {
namespace {

namespace fs = std::filesystem;

std::string TestPath(const char* name) {
  const std::string path = std::string(::testing::TempDir()) + "/" + name;
  fs::remove(path);
  return path;
}

std::vector<unsigned char> SlurpBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

template <typename T>
void Patch(std::vector<unsigned char>* bytes, size_t offset, T value) {
  ASSERT_LE(offset + sizeof(T), bytes->size());
  std::memcpy(bytes->data() + offset, &value, sizeof(T));
}

// Save/restore one environment variable around a test block.
class EnvVarGuard {
 public:
  EnvVarGuard(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvVarGuard() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

const char* BackendName(DistBackend backend) {
  return backend == DistBackend::kSocket ? "socket" : "thread";
}

std::vector<std::unique_ptr<CommBackend>> MakeRing(DistBackend backend,
                                                   int world) {
  if (backend == DistBackend::kSocket) {
    std::vector<std::unique_ptr<CommBackend>> ring;
    for (auto& endpoint : CreateSocketRing(world)) {
      ring.push_back(std::move(endpoint));
    }
    return ring;
  }
  return CreateThreadRing(world);
}

// --- Training fixtures ----------------------------------------------------

std::vector<Graph> TestDataset() {
  TuProfile profile = TuProfileByName("MUTAG");
  profile.num_graphs = 48;
  return GenerateTuDataset(profile, 2);
}

std::unique_ptr<GraphCl> MakeModel(uint64_t seed = 6) {
  const TuProfile profile = TuProfileByName("MUTAG");
  Rng rng(seed);
  GraphClConfig config;
  config.encoder.in_dim = profile.feature_dim;
  config.encoder.hidden_dim = 8;
  config.encoder.out_dim = 8;
  config.proj_dim = 8;
  return std::make_unique<GraphCl>(config, rng);
}

// 48 graphs at batch size 8 -> 6 batches/epoch; A = 4 -> 2 windows
// (optimizer steps) per epoch, the second with two empty trailing
// slots.
DistOptions SmallOptions(int epochs) {
  DistOptions opt;
  opt.train.epochs = epochs;
  opt.train.batch_size = 8;
  opt.train.lr = 0.02;
  opt.train.seed = 6;
  opt.micro_batches_per_step = 4;
  return opt;
}

void ExpectLossesBitEqual(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), sizeof(double) * a.size()), 0);
  }
}

void ExpectMatrixBitEqual(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), sizeof(double) * a.size()), 0);
}

// In-memory GraphBatchSource: gathers planned batches from a resident
// vector, exactly what PrefetchReader does for shards (data_test pins
// that equivalence; here it isolates the distributed streaming path).
class VectorBatchSource : public GraphBatchSource {
 public:
  explicit VectorBatchSource(std::vector<Graph> data)
      : data_(std::move(data)) {}

  int64_t num_graphs() const override {
    return static_cast<int64_t>(data_.size());
  }
  void BeginEpoch(const std::vector<std::vector<int>>& batches) override {
    plan_ = batches;
    next_ = 0;
  }
  bool NextBatch(std::vector<Graph>* graphs) override {
    if (next_ >= plan_.size()) return false;
    graphs->clear();
    for (int idx : plan_[next_]) graphs->push_back(data_[idx]);
    ++next_;
    return true;
  }

 private:
  std::vector<Graph> data_;
  std::vector<std::vector<int>> plan_;
  size_t next_ = 0;
};

// --- 1. Comm ring ---------------------------------------------------------

class CommBackendTest : public ::testing::TestWithParam<DistBackend> {};

TEST_P(CommBackendTest, BroadcastRelaysFromAnyRoot) {
  const int W = 4;
  // Big enough to overflow kernel socket buffers, so the socket
  // progress loops (not one lucky write) carry it.
  const int64_t n = 1 << 15;  // doubles
  for (int root = 0; root < W; ++root) {
    auto ring = MakeRing(GetParam(), W);
    std::vector<std::vector<double>> data(W, std::vector<double>(n, 0.0));
    for (int64_t i = 0; i < n; ++i) data[root][i] = 0.5 * i + root;
    const std::vector<double> expected = data[root];
    std::vector<CommStatus> status(W, CommStatus::kProtocol);
    std::vector<std::thread> ranks;
    for (int r = 0; r < W; ++r) {
      ranks.emplace_back([&, r] {
        status[r] = ring[r]->Broadcast(data[r].data(), n * 8, root);
      });
    }
    for (auto& t : ranks) t.join();
    for (int r = 0; r < W; ++r) {
      ASSERT_EQ(status[r], CommStatus::kOk) << "root " << root << " rank " << r;
      EXPECT_EQ(std::memcmp(data[r].data(), expected.data(), n * 8), 0)
          << "root " << root << " rank " << r;
    }
  }
}

TEST_P(CommBackendTest, BarrierWaitsForEveryRank) {
  const int W = 4;
  auto ring = MakeRing(GetParam(), W);
  std::atomic<int> entered{0};
  std::vector<CommStatus> status(W, CommStatus::kProtocol);
  std::vector<int> seen(W, -1);
  std::vector<std::thread> ranks;
  for (int r = 0; r < W; ++r) {
    ranks.emplace_back([&, r] {
      // Stagger entry so a broken barrier would release early.
      std::this_thread::sleep_for(std::chrono::milliseconds(10 * r));
      entered.fetch_add(1);
      status[r] = ring[r]->Barrier();
      seen[r] = entered.load();
    });
  }
  for (auto& t : ranks) t.join();
  for (int r = 0; r < W; ++r) {
    EXPECT_EQ(status[r], CommStatus::kOk);
    EXPECT_EQ(seen[r], W) << "rank " << r << " released before all entered";
  }
}

TEST_P(CommBackendTest, SilentPeerSurfacesTimeout) {
  auto ring = MakeRing(GetParam(), 2);
  ring[1]->set_timeout_millis(100);
  double x = 0.0;
  EXPECT_EQ(ring[1]->RecvPrev(&x, sizeof(x)), CommStatus::kTimeout);
}

INSTANTIATE_TEST_SUITE_P(Backends, CommBackendTest,
                         ::testing::Values(DistBackend::kThread,
                                           DistBackend::kSocket),
                         [](const auto& info) {
                           return std::string(BackendName(info.param));
                         });

TEST(CommTest, StatusNames) {
  EXPECT_STREQ(CommStatusName(CommStatus::kOk), "ok");
  EXPECT_STREQ(CommStatusName(CommStatus::kTimeout), "timeout");
  EXPECT_STREQ(CommStatusName(CommStatus::kPeerDead), "peer_dead");
  EXPECT_STREQ(CommStatusName(CommStatus::kProtocol), "protocol");
}

TEST(CommTest, ThreadSizeMismatchIsProtocolError) {
  auto ring = CreateThreadRing(2);
  const double payload = 1.0;
  // Mailbox sends never block, so this runs single-threaded.
  ASSERT_EQ(ring[0]->SendNext(&payload, 8), CommStatus::kOk);
  float wrong = 0.0f;
  EXPECT_EQ(ring[1]->RecvPrev(&wrong, 4), CommStatus::kProtocol);
}

TEST(CommTest, AbortUnblocksAPendingThreadReceive) {
  auto ring = CreateThreadRing(2);
  ring[1]->set_timeout_millis(30000);
  CommStatus status = CommStatus::kOk;
  std::thread receiver([&] {
    double x = 0.0;
    status = ring[1]->RecvPrev(&x, sizeof(x));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ring[0]->Abort();
  receiver.join();
  EXPECT_EQ(status, CommStatus::kPeerDead);
  // The ring stays dead: future operations fail fast.
  const double payload = 2.0;
  EXPECT_EQ(ring[0]->SendNext(&payload, 8), CommStatus::kPeerDead);
}

// --- 2. Ring all-reduce ---------------------------------------------------

// Reference: the fixed stride-doubling tree over per-rank inputs in
// absolute rank order — exactly the reduction RingAllReduceSum must
// realize regardless of transport, bucketing, or message timing.
std::vector<double> TreeReference(const std::vector<std::vector<double>>& in) {
  std::vector<std::vector<double>> copies = in;
  std::vector<double*> ptrs;
  for (auto& c : copies) ptrs.push_back(c.data());
  TreeReduceInPlace(ptrs.data(), static_cast<int>(copies.size()),
                    static_cast<int64_t>(copies[0].size()));
  return copies[0];
}

std::vector<std::vector<double>> RankInputs(int world, int64_t n) {
  std::vector<std::vector<double>> data(world, std::vector<double>(n));
  for (int r = 0; r < world; ++r) {
    Rng rng(100 + static_cast<uint64_t>(r));
    for (int64_t i = 0; i < n; ++i) {
      data[r][i] = rng.Normal() * (r + 1);
    }
  }
  return data;
}

void RunAllReduce(DistBackend backend, int world,
                  std::vector<std::vector<double>>* data,
                  int64_t bucket_bytes) {
  auto ring = MakeRing(backend, world);
  std::vector<CommStatus> status(world, CommStatus::kProtocol);
  std::vector<std::thread> ranks;
  for (int r = 0; r < world; ++r) {
    ranks.emplace_back([&, r] {
      status[r] = ring[r]->AllReduceSum(
          (*data)[r].data(), static_cast<int64_t>((*data)[r].size()),
          bucket_bytes);
    });
  }
  for (auto& t : ranks) t.join();
  for (int r = 0; r < world; ++r) {
    ASSERT_EQ(status[r], CommStatus::kOk) << "rank " << r;
  }
}

TEST_P(CommBackendTest, AllReduceMatchesFixedTreeReference) {
  // 1031 is prime, so no world size divides the chunk split evenly.
  const int64_t n = 1031;
  for (int world : {1, 2, 3, 4}) {
    const auto inputs = RankInputs(world, n);
    const std::vector<double> expected = TreeReference(inputs);
    auto data = inputs;
    RunAllReduce(GetParam(), world, &data, /*bucket_bytes=*/1 << 20);
    for (int r = 0; r < world; ++r) {
      EXPECT_EQ(std::memcmp(data[r].data(), expected.data(), n * 8), 0)
          << "world " << world << " rank " << r;
    }
  }
}

TEST_P(CommBackendTest, AllReduceBucketingDoesNotChangeBits) {
  const int64_t n = 1031;
  const int world = 4;
  const auto inputs = RankInputs(world, n);
  auto one_bucket = inputs;
  RunAllReduce(GetParam(), world, &one_bucket, /*bucket_bytes=*/1 << 20);
  // 8 bytes = one double per bucket; 248 = a ragged 31-double bucket.
  for (int64_t bucket : {int64_t{8}, int64_t{248}, int64_t{4096}}) {
    auto data = inputs;
    RunAllReduce(GetParam(), world, &data, bucket);
    for (int r = 0; r < world; ++r) {
      EXPECT_EQ(std::memcmp(data[r].data(), one_bucket[r].data(), n * 8), 0)
          << "bucket " << bucket << " rank " << r;
    }
  }
}

TEST(RingAllReduceTest, LargeExchangeSurvivesSocketBuffering) {
  // Per-step messages far beyond default socket buffers: only the
  // full-duplex SendRecv progress loop can complete this without
  // deadlocking on kernel buffering.
  const int64_t n = 1 << 16;
  const int world = 2;
  const auto inputs = RankInputs(world, n);
  const std::vector<double> expected = TreeReference(inputs);
  auto data = inputs;
  RunAllReduce(DistBackend::kSocket, world, &data, /*bucket_bytes=*/n * 8);
  for (int r = 0; r < world; ++r) {
    EXPECT_EQ(std::memcmp(data[r].data(), expected.data(), n * 8), 0);
  }
}

TEST(TreeReduceTest, AlignedSubBlocksCompose) {
  // tree(a0..a3) == tree(tree(a0,a1), tree(a2,a3)): rank-local
  // reductions over aligned slot blocks compose into the global tree
  // bit-for-bit — the property the trainer's W-invariance rests on.
  const int64_t n = 257;
  const auto inputs = RankInputs(4, n);
  const std::vector<double> full = TreeReference(inputs);
  std::vector<double> lo = TreeReference({inputs[0], inputs[1]});
  std::vector<double> hi = TreeReference({inputs[2], inputs[3]});
  const std::vector<double> composed = TreeReference({lo, hi});
  EXPECT_EQ(std::memcmp(full.data(), composed.data(), n * 8), 0);
}

TEST(TreeReduceTest, NonPowerOfTwoCountReducesInIndexOrder) {
  double a = 1.0, b = 2.0, c = 4.0;
  double* bufs[3] = {&a, &b, &c};
  TreeReduceInPlace(bufs, 3, 1);
  // stride 1 pairs (0,1); stride 2 pairs (0,2): (a + b) + c.
  EXPECT_EQ(a, (1.0 + 2.0) + 4.0);
}

// --- 3. Data-parallel training --------------------------------------------

TEST(DataParallelTest, MultiRankBitIdenticalToSingleProcessOverFiftySteps) {
  const std::vector<Graph> data = TestDataset();

  // Baseline: the no-comm single-rank path, 25 epochs x 2 windows = 50
  // optimizer steps, final state frozen into a checkpoint.
  DistOptions base = SmallOptions(/*epochs=*/25);
  base.world_size = 1;
  base.checkpoint_path = TestPath("dist_bitid_base.ckpt");
  auto base_model = MakeModel();
  DataParallelTrainer base_trainer(base);
  const DistResult ref = base_trainer.Run(*base_model, data, nullptr);
  ASSERT_EQ(ref.status, CommStatus::kOk);
  ASSERT_EQ(ref.steps_completed, 50);
  ASSERT_EQ(ref.step_losses.size(), 50u);
  const std::vector<unsigned char> ref_bytes = SlurpBytes(base.checkpoint_path);
  ASSERT_FALSE(ref_bytes.empty());

  struct Config {
    DistBackend backend;
    int world;
    int64_t bucket_bytes;  // 0 = default; 512 forces multiple buckets
  };
  const Config configs[] = {{DistBackend::kThread, 2, 0},
                            {DistBackend::kThread, 4, 0},
                            {DistBackend::kSocket, 2, 0},
                            {DistBackend::kSocket, 4, 512}};
  for (const Config& config : configs) {
    SCOPED_TRACE(std::string(BackendName(config.backend)) + " x" +
                 std::to_string(config.world));
    DistOptions opt = SmallOptions(/*epochs=*/25);
    opt.world_size = config.world;
    opt.bucket_bytes = config.bucket_bytes;
    opt.checkpoint_path = TestPath("dist_bitid_multi.ckpt");
    const std::vector<DistResult> results = RunDataParallelRanks(
        opt, config.backend, [](int) { return MakeModel(); }, data);
    ASSERT_EQ(results.size(), static_cast<size_t>(config.world));
    for (int r = 0; r < config.world; ++r) {
      ASSERT_EQ(results[r].status, CommStatus::kOk) << "rank " << r;
      EXPECT_EQ(results[r].steps_completed, 50) << "rank " << r;
      ExpectLossesBitEqual(results[r].step_losses, ref.step_losses);
    }
    // The final checkpoint freezes params + Adam moments + plan-Rng:
    // byte-identical files pin full bitwise state equality.
    EXPECT_EQ(SlurpBytes(opt.checkpoint_path), ref_bytes);
  }
}

TEST(DataParallelTest, AccumOneSingleRankReproducesTrainGraphSsl) {
  const std::vector<Graph> data = TestDataset();
  TrainOptions train;
  train.epochs = 6;
  train.batch_size = 16;  // 3 batches/epoch, one step each at A = 1
  train.lr = 0.02;
  train.seed = 6;

  auto classic_model = MakeModel();
  const std::vector<EpochStats> classic =
      TrainGraphSsl(*classic_model, data, train);

  DistOptions opt;
  opt.train = train;
  opt.world_size = 1;
  opt.micro_batches_per_step = 1;
  auto dist_model = MakeModel();
  DataParallelTrainer trainer(opt);
  const DistResult result = trainer.Run(*dist_model, data, nullptr);

  ASSERT_EQ(result.status, CommStatus::kOk);
  ASSERT_EQ(result.history.size(), classic.size());
  for (size_t e = 0; e < classic.size(); ++e) {
    EXPECT_EQ(result.history[e].loss, classic[e].loss) << "epoch " << e;
  }
  const auto& a = classic_model->parameters();
  const auto& b = dist_model->parameters();
  ASSERT_EQ(a.size(), b.size());
  for (size_t k = 0; k < a.size(); ++k) {
    ExpectMatrixBitEqual(a[k].value(), b[k].value());
  }
}

TEST(DataParallelTest, StreamedRanksBitIdenticalToInRam) {
  const std::vector<Graph> data = TestDataset();

  DistOptions opt = SmallOptions(/*epochs=*/6);  // 12 steps
  opt.world_size = 2;
  opt.checkpoint_path = TestPath("dist_stream_ram.ckpt");
  const std::vector<DistResult> in_ram = RunDataParallelRanks(
      opt, DistBackend::kThread, [](int) { return MakeModel(); }, data);
  ASSERT_EQ(in_ram[0].status, CommStatus::kOk);
  const std::vector<unsigned char> ram_bytes = SlurpBytes(opt.checkpoint_path);

  DistOptions streamed_opt = opt;
  streamed_opt.checkpoint_path = TestPath("dist_stream_src.ckpt");
  const std::vector<DistResult> streamed = RunDataParallelRanksStreamed(
      streamed_opt, DistBackend::kThread, [](int) { return MakeModel(); },
      [&](int) { return std::make_unique<VectorBatchSource>(data); });
  for (int r = 0; r < 2; ++r) {
    ASSERT_EQ(streamed[r].status, CommStatus::kOk) << "rank " << r;
    ExpectLossesBitEqual(streamed[r].step_losses, in_ram[r].step_losses);
  }
  EXPECT_EQ(SlurpBytes(streamed_opt.checkpoint_path), ram_bytes);
}

// The TSAN verify legs rerun this test with GRADGCL_DIST_RANKS in
// {2, 4} x GRADGCL_DIST_BACKEND in {thread, socket}; at any
// env-selected shape the trajectory must match the single-rank one.
TEST(DataParallelTest, EnvConfiguredWorldBitIdenticalToSingleRank) {
  const int world = ResolveDistRanks();
  const DistBackend backend = ResolveDistBackend();
  const std::vector<Graph> data = TestDataset();

  DistOptions base = SmallOptions(/*epochs=*/6);  // 12 steps
  base.world_size = 1;
  base.bucket_bytes = ResolveDistBucketBytes();
  auto base_model = MakeModel();
  DataParallelTrainer base_trainer(base);
  const DistResult ref = base_trainer.Run(*base_model, data, nullptr);
  ASSERT_EQ(ref.status, CommStatus::kOk);

  DistOptions opt = base;
  opt.world_size = world;
  const std::vector<DistResult> results =
      RunDataParallelRanks(opt, backend, [](int) { return MakeModel(); }, data);
  ASSERT_EQ(results.size(), static_cast<size_t>(world));
  for (int r = 0; r < world; ++r) {
    ASSERT_EQ(results[r].status, CommStatus::kOk)
        << BackendName(backend) << " rank " << r << " of " << world;
    ExpectLossesBitEqual(results[r].step_losses, ref.step_losses);
  }
}

TEST(DataParallelTest, EnvKnobsResolveAndRejectGarbage) {
  {
    EnvVarGuard g("GRADGCL_DIST_RANKS", nullptr);
    EXPECT_EQ(ResolveDistRanks(), 1);
  }
  for (const auto& [value, expected] :
       std::vector<std::pair<const char*, int>>{{"1", 1},
                                                {"4", 4},
                                                {"64", 64},
                                                {"3", 1},     // not a power of 2
                                                {"0", 1},
                                                {"128", 1},   // above the cap
                                                {"-2", 1},
                                                {"abc", 1},
                                                {"4x", 1}}) {
    EnvVarGuard g("GRADGCL_DIST_RANKS", value);
    EXPECT_EQ(ResolveDistRanks(), expected) << value;
  }
  {
    EnvVarGuard g("GRADGCL_DIST_BACKEND", nullptr);
    EXPECT_EQ(ResolveDistBackend(), DistBackend::kThread);
  }
  {
    EnvVarGuard g("GRADGCL_DIST_BACKEND", "socket");
    EXPECT_EQ(ResolveDistBackend(), DistBackend::kSocket);
  }
  {
    EnvVarGuard g("GRADGCL_DIST_BACKEND", "carrier-pigeon");
    EXPECT_EQ(ResolveDistBackend(), DistBackend::kThread);
  }
  {
    EnvVarGuard g("GRADGCL_DIST_BUCKET_BYTES", nullptr);
    EXPECT_EQ(ResolveDistBucketBytes(), int64_t{1} << 20);
  }
  {
    EnvVarGuard g("GRADGCL_DIST_BUCKET_BYTES", "4096");
    EXPECT_EQ(ResolveDistBucketBytes(), 4096);
  }
  for (const char* bad : {"4", "0", "-8", "lots"}) {
    EnvVarGuard g("GRADGCL_DIST_BUCKET_BYTES", bad);
    EXPECT_EQ(ResolveDistBucketBytes(), int64_t{1} << 20) << bad;
  }
}

// --- 4. Checkpoint/resume -------------------------------------------------

TrainCheckpoint SampleCheckpoint() {
  Rng rng(7);
  TrainCheckpoint ckpt;
  ckpt.global_step = 50;
  ckpt.epoch = 5;
  ckpt.window = 1;
  ckpt.adam_t = 50;
  // A stream with a cached Box-Muller normal exercises both rng words
  // and the cached-flag round-trip.
  Rng plan(9);
  plan.Normal();
  ckpt.plan_rng = plan.state();
  ckpt.accum = 4;
  ckpt.params = {Matrix::RandomNormal(3, 2, rng), Matrix::RandomNormal(1, 4, rng)};
  ckpt.adam_m = {Matrix::RandomNormal(3, 2, rng), Matrix::RandomNormal(1, 4, rng)};
  ckpt.adam_v = {Matrix::RandomNormal(3, 2, rng), Matrix::RandomNormal(1, 4, rng)};
  return ckpt;
}

TEST(CheckpointTest, RoundTripPreservesEveryField) {
  const std::string path = TestPath("ckpt_roundtrip.ckpt");
  const TrainCheckpoint saved = SampleCheckpoint();
  ASSERT_TRUE(SaveCheckpoint(path, saved));

  TrainCheckpoint loaded;
  ASSERT_TRUE(LoadCheckpoint(path, &loaded));
  EXPECT_EQ(loaded.global_step, saved.global_step);
  EXPECT_EQ(loaded.epoch, saved.epoch);
  EXPECT_EQ(loaded.window, saved.window);
  EXPECT_EQ(loaded.adam_t, saved.adam_t);
  EXPECT_EQ(loaded.accum, saved.accum);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(loaded.plan_rng.s[i], saved.plan_rng.s[i]);
  }
  EXPECT_EQ(loaded.plan_rng.has_cached_normal, saved.plan_rng.has_cached_normal);
  EXPECT_EQ(loaded.plan_rng.cached_normal, saved.plan_rng.cached_normal);
  ASSERT_EQ(loaded.params.size(), saved.params.size());
  for (size_t k = 0; k < saved.params.size(); ++k) {
    ExpectMatrixBitEqual(loaded.params[k], saved.params[k]);
    ExpectMatrixBitEqual(loaded.adam_m[k], saved.adam_m[k]);
    ExpectMatrixBitEqual(loaded.adam_v[k], saved.adam_v[k]);
  }
  // The restored stream must continue exactly where the saved one was.
  Rng a(9);
  a.Normal();
  Rng b(1);
  b.set_state(loaded.plan_rng);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a.Normal(), b.Normal());
}

TEST(CheckpointTest, MissingAndUnwritablePathsFailCleanly) {
  TrainCheckpoint out;
  const std::string missing = TestPath("no_such.ckpt");
  const uint64_t before = HeapNewCalls();
  EXPECT_FALSE(LoadCheckpoint(missing, &out));
  EXPECT_EQ(HeapNewCalls() - before, 0u);
  EXPECT_FALSE(SaveCheckpoint("/nonexistent-dir/sub/x.ckpt",
                              SampleCheckpoint()));
}

TEST(CheckpointTest, CorruptionBatteryRejectsWithZeroAllocations) {
  const std::string path = TestPath("ckpt_corrupt.ckpt");
  ASSERT_TRUE(SaveCheckpoint(path, SampleCheckpoint()));
  const std::vector<unsigned char> valid = SlurpBytes(path);
  ASSERT_FALSE(valid.empty());

  // Control: the unpatched file loads.
  {
    TrainCheckpoint out;
    ASSERT_TRUE(LoadCheckpoint(path, &out));
    EXPECT_EQ(out.global_step, 50);
  }

  struct Case {
    const char* name;
    std::function<void(std::vector<unsigned char>*)> corrupt;
  };
  const std::vector<Case> battery = {
      {"bad-magic", [](auto* b) { Patch<char>(b, 0, 'X'); }},
      {"bad-version", [](auto* b) { Patch<uint32_t>(b, 4, 2); }},
      {"negative-global-step",
       [](auto* b) { Patch<int64_t>(b, 8, -1); }},
      {"negative-epoch", [](auto* b) { Patch<int64_t>(b, 16, -3); }},
      {"negative-window", [](auto* b) { Patch<int64_t>(b, 24, -1); }},
      {"adam-t-exceeds-step", [](auto* b) { Patch<int64_t>(b, 32, 51); }},
      {"all-zero-rng",
       [](auto* b) {
         for (size_t i = 40; i < 72; ++i) (*b)[i] = 0;
       }},
      {"bad-cached-flag", [](auto* b) { Patch<uint32_t>(b, 72, 2); }},
      {"reserved-nonzero", [](auto* b) { Patch<uint32_t>(b, 76, 7); }},
      {"zero-accum", [](auto* b) { Patch<int32_t>(b, 88, 0); }},
      {"negative-accum", [](auto* b) { Patch<int32_t>(b, 88, -4); }},
      {"huge-accum",
       [](auto* b) { Patch<int32_t>(b, 88, (1 << 20) + 1); }},
      {"negative-tensor-count", [](auto* b) { Patch<int32_t>(b, 92, -1); }},
      {"huge-tensor-count",
       [](auto* b) { Patch<int32_t>(b, 92, (1 << 20) + 1); }},
      {"lying-tensor-count", [](auto* b) { Patch<int32_t>(b, 92, 3); }},
      {"zero-rows", [](auto* b) { Patch<int32_t>(b, 96, 0); }},
      {"negative-cols", [](auto* b) { Patch<int32_t>(b, 100, -2); }},
      {"huge-shape",
       [](auto* b) { Patch<int32_t>(b, 96, (1 << 30) + 1); }},
      {"lying-shape", [](auto* b) { Patch<int32_t>(b, 96, 1000); }},
      {"truncated-tail", [](auto* b) { b->resize(b->size() - 1); }},
      {"truncated-to-header", [](auto* b) { b->resize(96); }},
      {"truncated-mid-header", [](auto* b) { b->resize(50); }},
      {"empty-file", [](auto* b) { b->clear(); }},
      {"trailing-garbage", [](auto* b) { b->resize(b->size() + 8, 0); }},
  };

  for (const Case& c : battery) {
    SCOPED_TRACE(c.name);
    std::vector<unsigned char> bytes = valid;
    c.corrupt(&bytes);
    WriteFileBytes(path, bytes);
    TrainCheckpoint out;
    const uint64_t before = HeapNewCalls();
    const bool ok = LoadCheckpoint(path, &out);
    const uint64_t allocations = HeapNewCalls() - before;
    EXPECT_FALSE(ok);
    EXPECT_EQ(allocations, 0u)
        << "rejection of " << c.name << " allocated memory";
  }

  // The battery must not have broken the loader for good files.
  WriteFileBytes(path, valid);
  TrainCheckpoint out;
  EXPECT_TRUE(LoadCheckpoint(path, &out));
}

TEST(DataParallelTest, ResumeMidEpochBitIdenticalToUninterrupted) {
  const std::vector<Graph> data = TestDataset();

  // 8 epochs x 2 windows = 16 steps; stopping at 7 lands mid-epoch 3.
  DistOptions full = SmallOptions(/*epochs=*/8);
  full.world_size = 1;
  full.checkpoint_path = TestPath("ckpt_uninterrupted.ckpt");
  auto full_model = MakeModel();
  DataParallelTrainer full_trainer(full);
  const DistResult uninterrupted = full_trainer.Run(*full_model, data, nullptr);
  ASSERT_EQ(uninterrupted.status, CommStatus::kOk);
  ASSERT_EQ(uninterrupted.steps_completed, 16);
  const std::vector<unsigned char> full_bytes =
      SlurpBytes(full.checkpoint_path);

  DistOptions stop = full;
  stop.checkpoint_path = TestPath("ckpt_resume.ckpt");
  stop.stop_at_step = 7;
  auto stop_model = MakeModel();
  DataParallelTrainer stop_trainer(stop);
  const DistResult first_leg = stop_trainer.Run(*stop_model, data, nullptr);
  ASSERT_EQ(first_leg.status, CommStatus::kOk);
  ASSERT_EQ(first_leg.steps_completed, 7);
  ASSERT_EQ(first_leg.step_losses.size(), 7u);

  DistOptions resume = stop;
  resume.stop_at_step = -1;
  resume.resume = true;
  auto resume_model = MakeModel(/*seed=*/999);  // overwritten by the load
  DataParallelTrainer resume_trainer(resume);
  const DistResult second_leg = resume_trainer.Run(*resume_model, data,
                                                   nullptr);
  ASSERT_EQ(second_leg.status, CommStatus::kOk);
  ASSERT_EQ(second_leg.steps_completed, 16);
  ASSERT_EQ(second_leg.step_losses.size(), 9u);

  std::vector<double> stitched = first_leg.step_losses;
  stitched.insert(stitched.end(), second_leg.step_losses.begin(),
                  second_leg.step_losses.end());
  ExpectLossesBitEqual(stitched, uninterrupted.step_losses);
  // Final checkpoint files byte-identical: params, moments, rng cursor
  // all converge to the uninterrupted run's state.
  EXPECT_EQ(SlurpBytes(resume.checkpoint_path), full_bytes);
}

TEST(DataParallelTest, ResumeAtDifferentWorldSizeBitIdentical) {
  const std::vector<Graph> data = TestDataset();

  DistOptions base = SmallOptions(/*epochs=*/8);  // 16 steps
  base.world_size = 1;
  base.checkpoint_path = TestPath("ckpt_w_base.ckpt");
  auto base_model = MakeModel();
  DataParallelTrainer base_trainer(base);
  const DistResult ref = base_trainer.Run(*base_model, data, nullptr);
  ASSERT_EQ(ref.status, CommStatus::kOk);
  const std::vector<unsigned char> ref_bytes = SlurpBytes(base.checkpoint_path);

  // First leg on 2 thread ranks, stopped at step 6 — an epoch
  // boundary, so the saved cursor points past the epoch's last window.
  DistOptions stop = SmallOptions(/*epochs=*/8);
  stop.world_size = 2;
  stop.checkpoint_path = TestPath("ckpt_w_switch.ckpt");
  stop.stop_at_step = 6;
  const std::vector<DistResult> leg1 = RunDataParallelRanks(
      stop, DistBackend::kThread, [](int) { return MakeModel(); }, data);
  for (const DistResult& r : leg1) {
    ASSERT_EQ(r.status, CommStatus::kOk);
    ASSERT_EQ(r.steps_completed, 6);
  }

  // Second leg resumes the same file on 4 socket ranks.
  DistOptions resume = stop;
  resume.world_size = 4;
  resume.stop_at_step = -1;
  resume.resume = true;
  const std::vector<DistResult> leg2 = RunDataParallelRanks(
      resume, DistBackend::kSocket, [](int) { return MakeModel(); }, data);
  for (const DistResult& r : leg2) {
    ASSERT_EQ(r.status, CommStatus::kOk);
    ASSERT_EQ(r.steps_completed, 16);
    std::vector<double> stitched = leg1[0].step_losses;
    stitched.insert(stitched.end(), r.step_losses.begin(),
                    r.step_losses.end());
    ExpectLossesBitEqual(stitched, ref.step_losses);
  }
  EXPECT_EQ(SlurpBytes(resume.checkpoint_path), ref_bytes);
}

// --- 5. Fault injection ---------------------------------------------------

TEST(FaultInjectionTest, AbortedRankSurfacesTypedErrorWithoutPartialUpdate) {
  const std::vector<Graph> data = TestDataset();
  const int W = 4;

  DistOptions opt = SmallOptions(/*epochs=*/1000000);  // ended by the abort
  opt.world_size = W;
  opt.timeout_millis = 2000;

  auto ring = CreateSocketRing(W);
  std::vector<std::unique_ptr<GraphCl>> models;
  for (int r = 0; r < W; ++r) models.push_back(MakeModel());
  std::vector<DistResult> results(W);
  std::vector<std::thread> ranks;
  for (int r = 0; r < W; ++r) {
    ranks.emplace_back([&, r] {
      DataParallelTrainer trainer(opt);
      results[static_cast<size_t>(r)] =
          trainer.Run(*models[static_cast<size_t>(r)], data, ring[r].get());
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ring[2]->Abort();  // the victim dies mid-step
  for (auto& t : ranks) t.join();  // bounded by timeout_millis — no hang

  // Every rank (victim included) drains with a typed error, never a
  // fake success, and reports a loss entry per completed step only.
  for (int r = 0; r < W; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    const DistResult& res = results[static_cast<size_t>(r)];
    EXPECT_TRUE(res.status == CommStatus::kPeerDead ||
                res.status == CommStatus::kTimeout)
        << CommStatusName(res.status);
    EXPECT_EQ(res.step_losses.size(),
              static_cast<size_t>(res.steps_completed));
  }

  // No partial update: each rank's parameters are exactly a clean
  // single-rank run stopped after the same number of completed steps.
  std::map<int64_t, TrainCheckpoint> reference;
  for (int r = 0; r < W; ++r) {
    const int64_t steps = results[static_cast<size_t>(r)].steps_completed;
    if (steps == 0 || reference.count(steps) > 0) continue;
    DistOptions clean = SmallOptions(/*epochs=*/1000000);
    clean.world_size = 1;
    clean.stop_at_step = steps;
    clean.checkpoint_path = TestPath("ckpt_fault_ref.ckpt");
    auto clean_model = MakeModel();
    DataParallelTrainer clean_trainer(clean);
    const DistResult res = clean_trainer.Run(*clean_model, data, nullptr);
    ASSERT_EQ(res.status, CommStatus::kOk);
    ASSERT_EQ(res.steps_completed, steps);
    TrainCheckpoint ckpt;
    ASSERT_TRUE(LoadCheckpoint(clean.checkpoint_path, &ckpt));
    reference.emplace(steps, std::move(ckpt));
  }
  const auto initial = MakeModel();  // zero completed steps: untouched init
  for (int r = 0; r < W; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    const int64_t steps = results[static_cast<size_t>(r)].steps_completed;
    const auto& params = models[static_cast<size_t>(r)]->parameters();
    if (steps == 0) {
      const auto& init_params = initial->parameters();
      for (size_t k = 0; k < params.size(); ++k) {
        ExpectMatrixBitEqual(params[k].value(), init_params[k].value());
      }
      continue;
    }
    const TrainCheckpoint& ckpt = reference.at(steps);
    ASSERT_EQ(ckpt.params.size(), params.size());
    for (size_t k = 0; k < params.size(); ++k) {
      ExpectMatrixBitEqual(params[k].value(), ckpt.params[k]);
    }
  }
}

// --- Cross-process socket ranks -------------------------------------------

TEST(SocketProcessTest, ForkedTwoProcessTrainingMatchesSingleProcess) {
#ifdef GRADGCL_TEST_UNDER_SANITIZER
  GTEST_SKIP() << "fork()ed ranks are exercised outside sanitizer builds";
#else
  const std::vector<Graph> data = TestDataset();
  DistOptions opt = SmallOptions(/*epochs=*/4);  // 8 steps
  opt.world_size = 2;

  auto ring = CreateSocketRing(2);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Rank 1 in the child. Drop the descriptors of the rank this
    // process does not run so peer death would surface as EOF.
    ring[0]->CloseEndpoints();
    auto model = MakeModel();
    DataParallelTrainer trainer(opt);
    const DistResult res = trainer.Run(*model, data, ring[1].get());
    ::_exit(res.status == CommStatus::kOk ? 0 : 2);
  }
  ring[1]->CloseEndpoints();
  auto model = MakeModel();
  DataParallelTrainer trainer(opt);
  const DistResult mine = trainer.Run(*model, data, ring[0].get());
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  EXPECT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
  ASSERT_EQ(mine.status, CommStatus::kOk);

  DistOptions base = opt;
  base.world_size = 1;
  auto base_model = MakeModel();
  DataParallelTrainer base_trainer(base);
  const DistResult ref = base_trainer.Run(*base_model, data, nullptr);
  ExpectLossesBitEqual(mine.step_losses, ref.step_losses);
  const auto& a = model->parameters();
  const auto& b = base_model->parameters();
  for (size_t k = 0; k < a.size(); ++k) {
    ExpectMatrixBitEqual(a[k].value(), b[k].value());
  }
#endif
}

}  // namespace
}  // namespace dist
}  // namespace gradgcl
