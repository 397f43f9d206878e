// Autograd fuzzing: builds random op DAGs from a seeded generator and
// gradient-checks the result. This catches interaction bugs (gradient
// accumulation across shared subexpressions, shape plumbing through
// structural ops) that per-op tests cannot.

#include <cmath>
#include <functional>
#include <iterator>
#include <optional>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "tensor/simd.h"

namespace gradgcl {
namespace {

using VarList = std::vector<Variable>;

// Builds a random differentiable expression over `inputs` (all n x d)
// and reduces it to a scalar. Deterministic in `rng`'s state. Only
// smooth ops are used (no relu/abs kinks, no dropout), so central
// differences converge cleanly.
Variable RandomExpression(const VarList& inputs, int depth, Rng& rng) {
  GRADGCL_CHECK(!inputs.empty());
  // Working set starts as the inputs; each step combines two entries.
  std::vector<Variable> pool = inputs;
  for (int step = 0; step < depth; ++step) {
    const Variable a = pool[rng.UniformInt(static_cast<int>(pool.size()))];
    const Variable b = pool[rng.UniformInt(static_cast<int>(pool.size()))];
    Variable next;
    switch (rng.UniformInt(8)) {
      case 0:
        next = ag::Add(a, b);
        break;
      case 1:
        next = ag::Sub(a, b);
        break;
      case 2:
        next = ag::Hadamard(a, b);
        break;
      case 3:
        next = ag::Tanh(a);
        break;
      case 4:
        next = ag::Sigmoid(a);
        break;
      case 5:
        next = ag::ScalarMul(a, rng.Uniform(-1.5, 1.5));
        break;
      case 6:
        next = ag::RowNormalize(a);
        break;
      default:
        next = ag::MatMulTransB(a, b);  // n x n
        // Bring back to n x d through a product with b.
        next = ag::MatMul(next, b);
        break;
    }
    pool.push_back(next);
  }
  // Scalarise: mean of squares keeps everything smooth and bounded.
  Variable total = ag::Mean(ag::Square(pool.back()));
  // Mix in every input so all of them receive gradients.
  for (const Variable& v : pool) {
    total = ag::Add(total, ag::ScalarMul(ag::Mean(ag::Square(v)), 0.01));
  }
  return total;
}

class AutogradFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AutogradFuzz, RandomCompositeGradChecks) {
  const uint64_t seed = GetParam();
  Rng init(seed);
  const int n = 2 + init.UniformInt(3);
  const int d = 2 + init.UniformInt(3);
  VarList inputs;
  for (int k = 0; k < 3; ++k) {
    inputs.emplace_back(Matrix::RandomNormal(n, d, init, 0.0, 0.8),
                        /*requires_grad=*/true);
  }
  // The expression structure must be identical on every re-evaluation:
  // rebuild the RNG from the same seed inside the forward lambda.
  auto forward = [seed, n, d](const VarList& in) {
    Rng expr_rng(seed * 7919 + 13);
    (void)n;
    (void)d;
    return RandomExpression(in, /*depth=*/6, expr_rng);
  };
  const ag::GradCheckResult result =
      ag::CheckGradients(forward, inputs, 1e-5, 2e-4);
  EXPECT_TRUE(result.ok) << "seed " << seed << ": max error "
                         << result.max_abs_error << " at "
                         << result.worst_entry;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AutogradFuzz,
                         ::testing::Range<uint64_t>(0, 24));

// Shared-subexpression stress: the same node used k times must receive
// k-fold gradient.
class SharedSubexpression : public ::testing::TestWithParam<int> {};

TEST_P(SharedSubexpression, GradientScalesWithFanout) {
  const int fanout = GetParam();
  Rng rng(31 + fanout);
  Variable x(Matrix::RandomNormal(3, 3, rng), true);
  x.ZeroGrad();
  Variable sum = ag::Sum(x);
  for (int k = 1; k < fanout; ++k) sum = ag::Add(sum, ag::Sum(x));
  Backward(sum);
  EXPECT_TRUE(
      AllClose(x.grad(), Matrix(3, 3, static_cast<double>(fanout)), 1e-10));
}

INSTANTIATE_TEST_SUITE_P(Fanouts, SharedSubexpression,
                         ::testing::Values(1, 2, 3, 8, 32));

// --- Fused-kernel fuzzing ---------------------------------------------------
//
// The six fused kernels of the loss pipeline and the fused Linear
// node, gradient-checked on random shapes, inside and outside a
// TapeScope (pooled buffers are recycled mid-graph, so a
// stale-aliasing bug would only show up on the pooled leg). Each kernel
// output is scalarised through a fixed random probe
// (Sum(Hadamard(out, probe))) so every output entry contributes its own
// weight to the gradient.

constexpr const char* kFusedKernels[] = {
    "MatMulTransBScaled", "CosineGram",     "MaskedExpRowSum",
    "ScaleRowsMatMul",    "OffDiagSigmoid", "LogSumExpOffDiag",
    "Linear",
};
constexpr int kNumFusedKernels = static_cast<int>(std::size(kFusedKernels));

// inputs = {u (n x d), v (n x d), c (n x 1)}. Probes are rebuilt from
// `rng` on every call so re-evaluations see identical constants.
Variable FusedKernelExpression(int kernel, const VarList& inputs, int n,
                               int d, Rng& rng) {
  const Variable& u = inputs[0];
  const Variable& v = inputs[1];
  const Variable& c = inputs[2];
  const Variable probe_nn(Matrix::RandomNormal(n, n, rng));
  const Variable probe_nd(Matrix::RandomNormal(n, d, rng));
  const Variable probe_n1(Matrix::RandomNormal(n, 1, rng));

  Variable out;
  Variable probe;
  switch (kernel) {
    case 0:
      out = ag::MatMulTransBScaled(u, v, 1.3);
      probe = probe_nn;
      break;
    case 1:
      out = ag::CosineGram(u, /*inv_tau=*/2.0);
      probe = probe_nn;
      break;
    case 2:
      out = ag::MaskedExpRowSum(ag::MatMulTransBScaled(u, v, 0.7));
      probe = probe_n1;
      break;
    case 3:
      out = ag::ScaleRowsMatMul(ag::MatMulTransB(u, v), c, v, 0.3);
      probe = probe_nd;
      break;
    case 4:
      out = ag::OffDiagSigmoid(ag::MatMulTransBScaled(u, v, 0.5));
      probe = probe_nn;
      break;
    case 5:
      out = ag::LogSumExpOffDiag(ag::MatMulTransBScaled(u, v, 0.9));
      probe = probe_n1;
      break;
    default:
      // x = v, W = u^T v (d x d), b = u's first row: gradients reach
      // all three operands of the node through upstream ops.
      out = ag::Linear(v, ag::MatMul(ag::Transpose(u), v),
                       ag::GatherRows(u, {0}));
      probe = probe_nd;
      break;
  }
  Variable total = ag::Sum(ag::Hadamard(out, probe));
  // Mix in every input so all three receive gradients even for
  // kernels that only consume u and v.
  for (const Variable& in : inputs) {
    total = ag::Add(total, ag::ScalarMul(ag::Mean(ag::Square(in)), 0.01));
  }
  return total;
}

class FusedKernelFuzz
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool, bool>> {
 protected:
  void SetUp() override { simd_ = simd::Enabled(); }
  void TearDown() override { simd::SetEnabled(simd_); }

 private:
  bool simd_ = true;
};

TEST_P(FusedKernelFuzz, FusedKernelsGradCheck) {
  const auto [seed, pooled, simd_on] = GetParam();
  // The SIMD leg drives gradcheck through the vectorized fused kernels
  // (FMA-chain GEMM, laned dots); the scalar leg pins the fallback.
  simd::SetEnabled(simd_on);

  Rng init(seed * 104729 + 7);
  const int n = 3 + init.UniformInt(3);
  const int d = 2 + init.UniformInt(3);
  VarList inputs;
  inputs.emplace_back(Matrix::RandomNormal(n, d, init, 0.0, 0.8),
                      /*requires_grad=*/true);
  inputs.emplace_back(Matrix::RandomNormal(n, d, init, 0.0, 0.8),
                      /*requires_grad=*/true);
  inputs.emplace_back(Matrix::RandomNormal(n, 1, init, 0.0, 0.8),
                      /*requires_grad=*/true);

  for (int kernel = 0; kernel < kNumFusedKernels; ++kernel) {
    const uint64_t probe_seed = seed * 6007 + kernel * 271 + 1;
    auto forward = [kernel, probe_seed, n, d](const VarList& in) {
      Rng probe_rng(probe_seed);
      return FusedKernelExpression(kernel, in, n, d, probe_rng);
    };
    // The pooled leg recycles tape temporaries through the pool across
    // the re-evaluations gradcheck performs.
    std::optional<TapeScope> tape;
    if (pooled) tape.emplace();
    const ag::GradCheckResult result =
        ag::CheckGradients(forward, inputs, 1e-5, 2e-4);
    EXPECT_TRUE(result.ok)
        << kFusedKernels[kernel] << " seed " << seed
        << (pooled ? " (pooled)" : " (unpooled)") << " n=" << n << " d=" << d
        << ": max error " << result.max_abs_error << " at "
        << result.worst_entry;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndPooling, FusedKernelFuzz,
    ::testing::Combine(::testing::Range<uint64_t>(0, 8), ::testing::Bool(),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<FusedKernelFuzz::ParamType>& info) {
      return "Seed" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "Pooled" : "Unpooled") +
             (std::get<2>(info.param) ? "Simd" : "NoSimd");
    });

}  // namespace
}  // namespace gradgcl
