// Tests for the pooled tape substrate (tensor/pool.h) and the fused
// GradGCL loss kernels: bucket/recycling behaviour, TapeScope
// lifecycle, ASAN poisoning of pooled buffers, the steady-state
// zero-allocation guarantee, and *exact* (bitwise, not tolerance)
// equivalence of the fused kernels with the op-by-op compositions in
// loss_reference.h and of pooled with heap training, across thread
// counts.

#include <cstdio>
#include <cstring>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GRADGCL_TEST_UNDER_ASAN 1
#endif
#endif
#if !defined(GRADGCL_TEST_UNDER_ASAN) && defined(__SANITIZE_ADDRESS__)
#define GRADGCL_TEST_UNDER_ASAN 1
#endif
#if defined(GRADGCL_TEST_UNDER_ASAN)
#include <sanitizer/asan_interface.h>
#endif

#include "autograd/ops.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/grad_gcl_loss.h"
#include "core/gradient_features.h"
#include "losses/contrastive.h"
#include "tensor/matrix.h"
#include "tensor/pool.h"
#include "tensor/simd.h"
#include "train/optimizer.h"

#include "loss_reference.h"

namespace gradgcl {
namespace {

// Bitwise equality — distinguishes -0.0 from +0.0 and matches NaNs,
// which is exactly the "bit-identical" contract the fused kernels and
// the deterministic parallel substrate promise.
::testing::AssertionResult BitIdentical(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure()
           << "shape mismatch: " << a.rows() << "x" << a.cols() << " vs "
           << b.rows() << "x" << b.cols();
  }
  if (std::memcmp(a.data(), b.data(),
                  static_cast<size_t>(a.rows()) * a.cols() *
                      sizeof(double)) != 0) {
    for (int i = 0; i < a.rows(); ++i) {
      for (int j = 0; j < a.cols(); ++j) {
        const double av = a(i, j);
        const double bv = b(i, j);
        if (std::memcmp(&av, &bv, sizeof(double)) != 0) {
          return ::testing::AssertionFailure()
                 << "first differing element (" << i << ", " << j
                 << "): " << a(i, j) << " vs " << b(i, j);
        }
      }
    }
    return ::testing::AssertionFailure() << "buffers differ";
  }
  return ::testing::AssertionSuccess();
}

// Restores the thread count, the SIMD table and the parallel cost
// threshold, so each test can change them freely.
class PoolEnvironmentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    threads_ = NumThreads();
    simd_ = simd::Enabled();
    min_cost_ = internal::MinParallelCost();
  }
  void TearDown() override {
    SetNumThreads(threads_);
    simd::SetEnabled(simd_);
    internal::SetMinParallelCost(min_cost_);
  }

 private:
  int threads_ = 1;
  bool simd_ = true;
  int64_t min_cost_ = 0;
};

using MatrixPoolTest = PoolEnvironmentTest;
using TapeScopeTest = PoolEnvironmentTest;
using AllocationRegressionTest = PoolEnvironmentTest;
using FusedEquivalenceTest = PoolEnvironmentTest;
using PooledTrainingTest = PoolEnvironmentTest;

TEST_F(MatrixPoolTest, BucketsArePowerOfTwoAndRecycled) {
  MatrixPool& pool = MatrixPool::Instance();
  pool.Trim();
  const PoolStats before = pool.stats();

  size_t cap = 0;
  double* p = pool.Acquire(100, &cap);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(cap, 128u);  // next power of two
  EXPECT_EQ(pool.stats().acquires, before.acquires + 1);
  EXPECT_EQ(pool.stats().pool_hits, before.pool_hits);  // cold miss
  pool.Release(p, cap);
  EXPECT_EQ(pool.CachedBuffers(), 1u);
  EXPECT_EQ(pool.CachedBytes(), 128u * sizeof(double));

  // Any request that rounds to the same bucket reuses the buffer.
  size_t cap2 = 0;
  double* q = pool.Acquire(65, &cap2);
  EXPECT_EQ(q, p);
  EXPECT_EQ(cap2, 128u);
  EXPECT_EQ(pool.stats().pool_hits, before.pool_hits + 1);
  pool.Release(q, cap2);

  // Tiny requests share the minimum bucket.
  size_t small_cap = 0;
  double* s = pool.Acquire(1, &small_cap);
  EXPECT_GE(small_cap, 1u);
  EXPECT_EQ(small_cap & (small_cap - 1), 0u);  // power of two
  pool.Release(s, small_cap);

  pool.Trim();
  EXPECT_EQ(pool.CachedBuffers(), 0u);
  EXPECT_EQ(pool.CachedBytes(), 0u);
}

TEST_F(MatrixPoolTest, HeapAllocIsCounted) {
  MatrixPool& pool = MatrixPool::Instance();
  const PoolStats before = pool.stats();
  double* p = MatrixPool::HeapAlloc(50);
  ASSERT_NE(p, nullptr);
  const PoolStats after = pool.stats();
  EXPECT_EQ(after.heap_allocs, before.heap_allocs + 1);
  EXPECT_EQ(after.heap_bytes, before.heap_bytes + 50 * sizeof(double));
  EXPECT_EQ(after.acquires, before.acquires);  // unpooled path
  MatrixPool::HeapFree(p);
}

// In an ASAN build a pooled buffer is poisoned while it sits in a free
// list, and a live one past its matrix's size, so ASAN sees the same
// accesses in pooled buffers as in heap ones.
TEST_F(MatrixPoolTest, ReleasedBuffersAndTailsArePoisonedUnderAsan) {
#if defined(GRADGCL_TEST_UNDER_ASAN)
  MatrixPool& pool = MatrixPool::Instance();
  size_t cap = 0;
  double* p = pool.Acquire(100, &cap);
  ASSERT_EQ(cap, 128u);
  EXPECT_FALSE(__asan_address_is_poisoned(p));
  EXPECT_FALSE(__asan_address_is_poisoned(p + 99));
  EXPECT_TRUE(__asan_address_is_poisoned(p + 100));
  EXPECT_TRUE(__asan_address_is_poisoned(p + 127));

  // A pooled Matrix reusing its buffer at another size moves the
  // boundary with it.
  {
    TapeScope tape;
    Matrix m(10, 10, 1.0);  // 100 of 128
    const Matrix small(4, 4, 2.0);
    const Matrix large(11, 11, 3.0);
    EXPECT_TRUE(__asan_address_is_poisoned(m.data() + 100));
    m = small;
    EXPECT_FALSE(__asan_address_is_poisoned(m.data() + 15));
    EXPECT_TRUE(__asan_address_is_poisoned(m.data() + 16));
    m = large;
    EXPECT_FALSE(__asan_address_is_poisoned(m.data() + 120));
    EXPECT_TRUE(__asan_address_is_poisoned(m.data() + 121));
  }

  pool.Release(p, cap);
  EXPECT_TRUE(__asan_address_is_poisoned(p));
  EXPECT_TRUE(__asan_address_is_poisoned(p + 99));
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        const volatile double* released = p;
        std::printf("%f\n", released[0]);
      },
      "use-after-poison");
  pool.Trim();
#else
  GTEST_SKIP() << "pool poisoning is compiled in only under ASAN";
#endif
}

TEST_F(TapeScopeTest, PoolsOnlyInsideActiveScope) {
  MatrixPool& pool = MatrixPool::Instance();
  EXPECT_FALSE(TapeScope::Active());

  PoolStats before = pool.stats();
  { Matrix outside = Matrix::Uninitialized(16, 16); }
  PoolStats after = pool.stats();
  EXPECT_EQ(after.acquires, before.acquires);  // heap, not pooled
  EXPECT_EQ(after.heap_allocs, before.heap_allocs + 1);

  before = pool.stats();
  {
    TapeScope tape;
    EXPECT_TRUE(TapeScope::Active());
    Matrix inside = Matrix::Uninitialized(16, 16);
  }
  EXPECT_FALSE(TapeScope::Active());
  after = pool.stats();
  EXPECT_EQ(after.acquires, before.acquires + 1);
}

TEST_F(TapeScopeTest, PooledMatrixOutlivesItsScope) {
  MatrixPool& pool = MatrixPool::Instance();
  pool.Trim();

  Matrix escapee;
  {
    TapeScope tape;
    escapee = Matrix::Uninitialized(8, 8);
    for (int i = 0; i < 8; ++i)
      for (int j = 0; j < 8; ++j) escapee(i, j) = i * 8.0 + j;
  }
  // Buffers return via RAII only — closing the scope must not recall
  // the live buffer.
  EXPECT_EQ(pool.CachedBuffers(), 0u);
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 8; ++j) EXPECT_EQ(escapee(i, j), i * 8.0 + j);

  escapee = Matrix();  // destruction returns the buffer to the pool
  EXPECT_EQ(pool.CachedBuffers(), 1u);
  pool.Trim();
}

TEST_F(TapeScopeTest, ScopesNest) {
  EXPECT_FALSE(TapeScope::Active());
  {
    TapeScope outer;
    EXPECT_TRUE(TapeScope::Active());
    {
      TapeScope inner;
      EXPECT_TRUE(TapeScope::Active());
    }
    EXPECT_TRUE(TapeScope::Active());  // inner close keeps outer alive
  }
  EXPECT_FALSE(TapeScope::Active());
}

TEST_F(TapeScopeTest, ConcurrentScopesAreThreadSafe) {
  MatrixPool& pool = MatrixPool::Instance();
  const PoolStats before = pool.stats();

  constexpr int kThreads = 4;
  constexpr int kIters = 200;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      TapeScope tape;  // scope activation is thread-local
      EXPECT_TRUE(TapeScope::Active());
      for (int i = 0; i < kIters; ++i) {
        Matrix m = Matrix::Uninitialized(4 + t, 8);
        m.Fill(static_cast<double>(i));
        EXPECT_EQ(m(0, 0), static_cast<double>(i));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_FALSE(TapeScope::Active());  // worker scopes never leak here

  const PoolStats after = pool.stats();
  EXPECT_EQ(after.acquires,
            before.acquires + uint64_t{kThreads} * kIters);
  pool.Trim();
}

// One fixed-shape GradGCL training step: two linear encoders, the
// combined loss, backward, Adam. Parameters and optimizer state live
// outside any TapeScope (pool-exempt); a pooled step opens its own
// scope exactly like the training loop does, an unpooled one runs on
// plain heap buffers.
struct StepWorkload {
  StepWorkload()
      : rng(7),
        w1(Matrix::RandomNormal(16, 24, rng, 0.0, 0.3), true),
        w2(Matrix::RandomNormal(16, 24, rng, 0.0, 0.3), true),
        x1(Matrix::RandomNormal(20, 16, rng)),
        x2(Matrix::RandomNormal(20, 16, rng)),
        loss_fn(GradGclConfig{}),
        opt({w1, w2}, 1e-3) {}

  double Step(bool pooled = true) {
    std::optional<TapeScope> tape;
    if (pooled) tape.emplace();
    opt.ZeroGrad();
    TwoViewBatch views{ag::Tanh(ag::MatMul(Variable(x1), w1)),
                       ag::Tanh(ag::MatMul(Variable(x2), w2))};
    Variable loss = loss_fn(views);
    Backward(loss);
    opt.Step();
    return loss.scalar();
  }

  Rng rng;
  Variable w1, w2;
  Matrix x1, x2;
  GradGclLoss loss_fn;
  Adam opt;
};

TEST_F(AllocationRegressionTest, SteadyStateStepIsAllocationFree) {
  MatrixPool& pool = MatrixPool::Instance();

  StepWorkload workload;
  // Warm-up populates every bucket the step's working set needs (and
  // lazily creates parameter grad buffers).
  for (int i = 0; i < 3; ++i) workload.Step();

  const PoolStats before = pool.stats();
  constexpr int kSteps = 5;
  for (int i = 0; i < kSteps; ++i) workload.Step();
  const PoolStats after = pool.stats();

  // The zero-allocation guarantee: at steady state every matrix buffer
  // of the step is served from the free lists.
  EXPECT_EQ(after.heap_allocs, before.heap_allocs)
      << "steady-state step hit the heap ("
      << (after.heap_allocs - before.heap_allocs) << " allocations over "
      << kSteps << " steps)";
  EXPECT_GT(after.pool_hits, before.pool_hits);
  EXPECT_EQ(after.pool_hits - before.pool_hits,
            after.acquires - before.acquires);  // every acquire was a hit
  pool.Trim();
}

TEST_F(PooledTrainingTest, PoolingDoesNotChangeTrainingBits) {
  // Identical runs inside and outside a TapeScope: loss trajectory and
  // final weights must match bit for bit (recycled buffers are handed
  // out uninitialized, so any read-before-write would show up here).
  StepWorkload pooled;
  std::vector<double> pooled_losses;
  for (int i = 0; i < 6; ++i) pooled_losses.push_back(pooled.Step());

  StepWorkload unpooled;
  std::vector<double> unpooled_losses;
  for (int i = 0; i < 6; ++i) {
    unpooled_losses.push_back(unpooled.Step(/*pooled=*/false));
  }

  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(std::memcmp(&pooled_losses[i], &unpooled_losses[i],
                          sizeof(double)),
              0)
        << "loss diverged at step " << i << ": " << pooled_losses[i]
        << " vs " << unpooled_losses[i];
  }
  EXPECT_TRUE(BitIdentical(pooled.w1.value(), unpooled.w1.value()));
  EXPECT_TRUE(BitIdentical(pooled.w2.value(), unpooled.w2.value()));
  MatrixPool::Instance().Trim();
}

// Value + input gradients of a Variable-valued functional. The probe
// weights make the upstream gradient non-constant so backward closures
// are exercised beyond an all-ones seed.
struct EvalResult {
  Matrix value;
  Matrix du;
  Matrix dv;
};

template <typename Fn>
EvalResult EvalWithGrads(const Matrix& mu, const Matrix& mv,
                         const Matrix& probe, Fn&& fn) {
  Variable u(mu, true);
  Variable v(mv, true);
  Variable out = fn(u, v);
  Variable seed = out.rows() == 1 && out.cols() == 1
                      ? out
                      : ag::Sum(ag::Hadamard(out, Variable(probe)));
  Backward(seed);
  return {out.value(), u.grad(), v.grad()};
}

TEST_F(FusedEquivalenceTest, InfoNceGradientFeaturesMatchUnfusedExactly) {
  Rng rng(11);
  const Matrix mu = Matrix::RandomNormal(17, 9, rng);
  const Matrix mv = Matrix::RandomNormal(17, 9, rng);
  const Matrix probe = Matrix::RandomNormal(17, 9, rng);
  const double tau = 0.4;
  auto features = [&](const Variable& u, const Variable& v) {
    return InfoNceGradientFeatures(u, v, tau);
  };
  auto reference = [&](const Variable& u, const Variable& v) {
    return reference::InfoNceGradientFeatures(u, v, tau);
  };

  SetNumThreads(1);
  const EvalResult ref = EvalWithGrads(mu, mv, probe, reference);
  for (int threads : {1, 2, 4}) {
    SetNumThreads(threads);
    const EvalResult fused = EvalWithGrads(mu, mv, probe, features);
    EXPECT_TRUE(BitIdentical(fused.value, ref.value)) << threads << " threads";
    EXPECT_TRUE(BitIdentical(fused.du, ref.du)) << threads << " threads";
    EXPECT_TRUE(BitIdentical(fused.dv, ref.dv)) << threads << " threads";
    const EvalResult unfused = EvalWithGrads(mu, mv, probe, reference);
    EXPECT_TRUE(BitIdentical(unfused.value, ref.value))
        << threads << " threads";
    EXPECT_TRUE(BitIdentical(unfused.du, ref.du)) << threads << " threads";
  }
}

TEST_F(FusedEquivalenceTest, JsdGradientFeaturesMatchUnfusedExactly) {
  Rng rng(13);
  const Matrix mu = Matrix::RandomNormal(15, 7, rng);
  const Matrix mv = Matrix::RandomNormal(15, 7, rng);
  const Matrix probe = Matrix::RandomNormal(15, 7, rng);
  auto features = [&](const Variable& u, const Variable& v) {
    return JsdGradientFeatures(u, v);
  };
  auto reference = [&](const Variable& u, const Variable& v) {
    return reference::JsdGradientFeatures(u, v);
  };

  SetNumThreads(1);
  const EvalResult ref = EvalWithGrads(mu, mv, probe, reference);
  for (int threads : {1, 2, 4}) {
    SetNumThreads(threads);
    const EvalResult fused = EvalWithGrads(mu, mv, probe, features);
    EXPECT_TRUE(BitIdentical(fused.value, ref.value)) << threads << " threads";
    EXPECT_TRUE(BitIdentical(fused.du, ref.du)) << threads << " threads";
    EXPECT_TRUE(BitIdentical(fused.dv, ref.dv)) << threads << " threads";
  }
}

TEST_F(FusedEquivalenceTest, InfoNceLossMatchesUnfusedExactly) {
  Rng rng(17);
  const Matrix mu = Matrix::RandomNormal(19, 8, rng);
  const Matrix mv = Matrix::RandomNormal(19, 8, rng);
  const Matrix probe;  // loss is scalar; probe unused
  auto loss = [&](const Variable& u, const Variable& v) {
    return InfoNce(u, v, 0.5);
  };
  auto reference = [&](const Variable& u, const Variable& v) {
    return reference::InfoNce(u, v, 0.5);
  };

  SetNumThreads(1);
  const EvalResult ref = EvalWithGrads(mu, mv, probe, reference);
  for (int threads : {1, 2, 4}) {
    SetNumThreads(threads);
    const EvalResult fused = EvalWithGrads(mu, mv, probe, loss);
    EXPECT_TRUE(BitIdentical(fused.value, ref.value)) << threads << " threads";
    EXPECT_TRUE(BitIdentical(fused.du, ref.du)) << threads << " threads";
    EXPECT_TRUE(BitIdentical(fused.dv, ref.dv)) << threads << " threads";
  }
}

TEST_F(FusedEquivalenceTest, GradGclLossMatchesUnfusedExactly) {
  Rng rng(19);
  const Matrix mu = Matrix::RandomNormal(14, 10, rng);
  const Matrix mv = Matrix::RandomNormal(14, 10, rng);
  const Matrix probe;  // scalar loss
  const GradGclConfig config;  // weight 0.5: both components live
  GradGclLoss loss_fn(config);
  auto loss = [&](const Variable& u, const Variable& v) {
    return loss_fn(TwoViewBatch{u, v});
  };
  auto reference = [&](const Variable& u, const Variable& v) {
    return reference::GradGclLoss(u, v, config.weight, config.tau);
  };

  SetNumThreads(1);
  const EvalResult ref = EvalWithGrads(mu, mv, probe, reference);
  for (int threads : {1, 2, 4}) {
    SetNumThreads(threads);
    const EvalResult fused = EvalWithGrads(mu, mv, probe, loss);
    EXPECT_TRUE(BitIdentical(fused.value, ref.value)) << threads << " threads";
    EXPECT_TRUE(BitIdentical(fused.du, ref.du)) << threads << " threads";
    EXPECT_TRUE(BitIdentical(fused.dv, ref.dv)) << threads << " threads";
  }
}

TEST_F(FusedEquivalenceTest, LinearMatchesMatMulPlusBiasExactly) {
  Rng rng(29);
  // 70 output columns span two 64-wide GEMM column tiles, and forced
  // fan-out splits the row strips across threads, so the bias add runs
  // per tile exactly as it does in the encoder.
  const Matrix mx = Matrix::RandomNormal(203, 37, rng);
  const Matrix mw = Matrix::RandomNormal(37, 70, rng);
  const Matrix mb = Matrix::RandomNormal(1, 70, rng);
  const Matrix probe = Matrix::RandomNormal(203, 70, rng);
  struct Result {
    Matrix value, dx, dw, db;
  };
  auto eval = [&](bool fused) {
    Variable x(mx, true);
    Variable w(mw, true);
    Variable b(mb, true);
    Variable out = fused ? ag::Linear(x, w, b)
                         : ag::AddRowBroadcast(ag::MatMul(x, w), b);
    Backward(ag::Sum(ag::Hadamard(out, Variable(probe))));
    return Result{out.value(), x.grad(), w.grad(), b.grad()};
  };

  internal::SetMinParallelCost(0);
  for (bool simd_on : {true, false}) {
    simd::SetEnabled(simd_on);
    SetNumThreads(1);
    const Result ref = eval(/*fused=*/false);
    for (int threads : {1, 2, 4}) {
      SetNumThreads(threads);
      const Result fused = eval(/*fused=*/true);
      EXPECT_TRUE(BitIdentical(fused.value, ref.value))
          << threads << " threads, simd " << simd_on;
      EXPECT_TRUE(BitIdentical(fused.dx, ref.dx))
          << threads << " threads, simd " << simd_on;
      EXPECT_TRUE(BitIdentical(fused.dw, ref.dw))
          << threads << " threads, simd " << simd_on;
      EXPECT_TRUE(BitIdentical(fused.db, ref.db))
          << threads << " threads, simd " << simd_on;
    }
  }
}

TEST_F(FusedEquivalenceTest, EuclideanFeaturesBitIdenticalAcrossThreads) {
  Rng rng(23);
  const Matrix mu = Matrix::RandomNormal(33, 6, rng);
  const Matrix mv = Matrix::RandomNormal(33, 6, rng);

  SetNumThreads(1);
  const Matrix ref = EuclideanGradientFeatures(mu, mv);
  for (int threads : {2, 4}) {
    SetNumThreads(threads);
    EXPECT_TRUE(BitIdentical(EuclideanGradientFeatures(mu, mv), ref))
        << threads << " threads";
  }
}

}  // namespace
}  // namespace gradgcl
