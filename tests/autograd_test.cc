// Gradient-checks every differentiable op against central finite
// differences, plus tape-mechanics tests (accumulation, detach,
// re-entrancy). Correct gradients are the foundation the whole
// reproduction rests on.

#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "tensor/ops.h"

namespace gradgcl {
namespace {

using VarList = std::vector<Variable>;

Variable Param(int rows, int cols, uint64_t seed, double scale = 1.0) {
  Rng rng(seed);
  return Variable(Matrix::RandomNormal(rows, cols, rng, 0.0, scale),
                  /*requires_grad=*/true);
}

void ExpectGradOk(
    const std::function<Variable(const VarList&)>& forward,
    VarList inputs, double tol = 1e-6) {
  const ag::GradCheckResult result =
      ag::CheckGradients(forward, std::move(inputs), 1e-5, tol);
  EXPECT_TRUE(result.ok) << "max error " << result.max_abs_error << " at "
                         << result.worst_entry;
}

TEST(AutogradOps, AddGradient) {
  ExpectGradOk(
      [](const VarList& in) { return ag::Sum(ag::Add(in[0], in[1])); },
      {Param(3, 4, 1), Param(3, 4, 2)});
}

TEST(AutogradOps, SubGradient) {
  ExpectGradOk(
      [](const VarList& in) {
        return ag::Sum(ag::Square(ag::Sub(in[0], in[1])));
      },
      {Param(3, 4, 3), Param(3, 4, 4)});
}

TEST(AutogradOps, ScalarOpsGradient) {
  ExpectGradOk(
      [](const VarList& in) {
        return ag::Sum(ag::ScalarAdd(ag::ScalarMul(in[0], -2.5), 3.0));
      },
      {Param(2, 5, 5)});
}

TEST(AutogradOps, HadamardGradient) {
  ExpectGradOk(
      [](const VarList& in) { return ag::Sum(ag::Hadamard(in[0], in[1])); },
      {Param(3, 3, 6), Param(3, 3, 7)});
}

TEST(AutogradOps, MatMulGradient) {
  ExpectGradOk(
      [](const VarList& in) {
        return ag::Sum(ag::Square(ag::MatMul(in[0], in[1])));
      },
      {Param(3, 4, 8), Param(4, 2, 9)});
}

TEST(AutogradOps, MatMulTransBGradient) {
  ExpectGradOk(
      [](const VarList& in) {
        return ag::Sum(ag::Square(ag::MatMulTransB(in[0], in[1])));
      },
      {Param(3, 4, 10), Param(5, 4, 11)});
}

TEST(AutogradOps, SparseLeftMatMulGradient) {
  SparseMatrix s(3, 3, {{0, 1, 2.0}, {1, 0, -1.0}, {2, 2, 0.5}, {0, 0, 1.0}});
  ExpectGradOk(
      [s](const VarList& in) {
        return ag::Sum(ag::Square(ag::SparseLeftMatMul(s, in[0])));
      },
      {Param(3, 4, 14)});
}

TEST(AutogradOps, TransposeGradient) {
  ExpectGradOk(
      [](const VarList& in) {
        return ag::Sum(ag::Square(ag::Transpose(in[0])));
      },
      {Param(3, 5, 15)});
}

TEST(AutogradOps, ReluGradient) {
  // Keep values away from the kink at 0.
  Variable x = Param(4, 4, 16);
  Matrix v = x.value();
  for (int i = 0; i < v.size(); ++i) {
    if (std::abs(v.at_flat(i)) < 0.05) v.at_flat(i) = 0.1;
  }
  x.set_value(v);
  ExpectGradOk(
      [](const VarList& in) { return ag::Sum(ag::Square(ag::Relu(in[0]))); },
      {x});
}

TEST(AutogradOps, LeakyReluValueAndGradient) {
  Variable x(Matrix{{-2, 3}}, true);
  Variable y = ag::LeakyRelu(x, 0.1);
  EXPECT_DOUBLE_EQ(y.value()(0, 0), -0.2);
  EXPECT_DOUBLE_EQ(y.value()(0, 1), 3.0);
  Backward(ag::Sum(y));
  EXPECT_DOUBLE_EQ(x.grad()(0, 0), 0.1);
  EXPECT_DOUBLE_EQ(x.grad()(0, 1), 1.0);
}

// Bit pattern of a double, so signed zeros and NaN compare exactly.
uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// Input gradient of `act` at the kink and at non-finite inputs, for the
// upstream gradient (3, 5, ..., 13).
Matrix KinkInputGradient(const std::function<Variable(const Variable&)>& act) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Variable x(Matrix{{-1.0, -0.0, 0.0, 1e-300, inf, nan}}, true);
  const Variable upstream(Matrix{{3.0, 5.0, 7.0, 9.0, 11.0, 13.0}});
  Backward(ag::Sum(ag::Hadamard(act(x), upstream)));
  return x.grad();
}

TEST(AutogradOps, ReluBackwardAtKinkAndNonFinite) {
  // x <= 0 (both zeros included) zeroes the gradient; x > 0 and NaN,
  // for which x <= 0 is false, pass it through.
  const Matrix g =
      KinkInputGradient([](const Variable& x) { return ag::Relu(x); });
  const double want[] = {0.0, 0.0, 0.0, 9.0, 11.0, 13.0};
  for (int i = 0; i < 6; ++i) EXPECT_EQ(Bits(g(0, i)), Bits(want[i])) << i;
}

TEST(AutogradOps, LeakyReluBackwardAtKinkAndNonFinite) {
  const Matrix g = KinkInputGradient(
      [](const Variable& x) { return ag::LeakyRelu(x, 0.25); });
  const double want[] = {0.75, 1.25, 1.75, 9.0, 11.0, 13.0};
  for (int i = 0; i < 6; ++i) EXPECT_EQ(Bits(g(0, i)), Bits(want[i])) << i;
}

TEST(AutogradOps, MaskedRowSoftmaxGradient) {
  Matrix mask(3, 4, 1.0);
  mask(0, 0) = 0.0;
  mask(1, 3) = 0.0;
  ExpectGradOk(
      [mask](const VarList& in) {
        return ag::Sum(ag::Square(ag::MaskedRowSoftmax(in[0], mask)));
      },
      {Param(3, 4, 70)});
}

TEST(AutogradOps, MaskedRowSoftmaxRespectsSupport) {
  Matrix mask(2, 3, 1.0);
  mask(0, 1) = 0.0;
  Variable x(Matrix{{5, 100, 5}, {1, 1, 1}});  // huge masked entry
  const Matrix y = ag::MaskedRowSoftmax(x, mask).value();
  EXPECT_DOUBLE_EQ(y(0, 1), 0.0);  // masked out despite the huge logit
  EXPECT_NEAR(y(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(y(0, 2), 0.5, 1e-12);
  EXPECT_NEAR(y(1, 0) + y(1, 1) + y(1, 2), 1.0, 1e-12);
}

TEST(AutogradOps, TanhSigmoidExpGradients) {
  ExpectGradOk(
      [](const VarList& in) { return ag::Sum(ag::Tanh(in[0])); },
      {Param(3, 3, 17)});
  ExpectGradOk(
      [](const VarList& in) { return ag::Sum(ag::Sigmoid(in[0])); },
      {Param(3, 3, 18)});
  ExpectGradOk(
      [](const VarList& in) { return ag::Sum(ag::Exp(in[0])); },
      {Param(3, 3, 19, 0.5)});
}

TEST(AutogradOps, LogSqrtSquareReciprocalGradients) {
  // Strictly positive inputs for log/sqrt/reciprocal.
  Rng rng(20);
  Variable x(Matrix::RandomUniform(3, 3, rng, 0.5, 2.0), true);
  ExpectGradOk(
      [](const VarList& in) { return ag::Sum(ag::LogEps(in[0])); }, {x});
  Variable y(Matrix::RandomUniform(3, 3, rng, 0.5, 2.0), true);
  ExpectGradOk(
      [](const VarList& in) { return ag::Sum(ag::Sqrt(in[0])); }, {y});
  ExpectGradOk(
      [](const VarList& in) { return ag::Sum(ag::Square(in[0])); },
      {Param(3, 3, 21)});
  Variable z(Matrix::RandomUniform(3, 3, rng, 0.5, 2.0), true);
  ExpectGradOk(
      [](const VarList& in) { return ag::Sum(ag::Reciprocal(in[0])); }, {z},
      1e-5);
}

TEST(AutogradOps, ReductionGradients) {
  ExpectGradOk(
      [](const VarList& in) { return ag::Mean(ag::Square(in[0])); },
      {Param(4, 3, 22)});
  ExpectGradOk(
      [](const VarList& in) {
        return ag::Sum(ag::Square(ag::SumRows(in[0])));
      },
      {Param(4, 3, 23)});
}

TEST(AutogradOps, RowNormalizeGradient) {
  ExpectGradOk(
      [](const VarList& in) {
        // Project onto a fixed direction so the gradient is nontrivial.
        return ag::Sum(ag::Square(ag::RowNormalize(in[0])));
      },
      {Param(4, 5, 25)});
}

TEST(AutogradOps, RowNormalizeIsScaleInvariant) {
  Variable x = Param(3, 4, 26);
  Variable y1 = ag::RowNormalize(x);
  Variable y2 = ag::RowNormalize(ag::ScalarMul(x, 7.3));
  EXPECT_TRUE(AllClose(y1.value(), y2.value(), 1e-12));
}

TEST(AutogradOps, RowPairDotGradient) {
  ExpectGradOk(
      [](const VarList& in) {
        return ag::Sum(ag::Square(ag::RowPairDot(in[0], in[1])));
      },
      {Param(4, 3, 27), Param(4, 3, 28)});
}

TEST(AutogradOps, ScaleRowsVarGradient) {
  ExpectGradOk(
      [](const VarList& in) {
        return ag::Sum(ag::Square(ag::ScaleRowsVar(in[0], in[1])));
      },
      {Param(4, 3, 29), Param(4, 1, 30)});
}

TEST(AutogradOps, PairwiseSquaredDistancesGradient) {
  ExpectGradOk(
      [](const VarList& in) {
        return ag::Mean(ag::PairwiseSquaredDistances(in[0], in[1]));
      },
      {Param(4, 3, 31), Param(3, 3, 32)},
      1e-5);
}

TEST(AutogradOps, LogSumExpRowsGradient) {
  Matrix mask(3, 4, 1.0);
  mask(0, 0) = 0.0;
  mask(2, 3) = 0.0;
  ExpectGradOk(
      [mask](const VarList& in) {
        return ag::Sum(ag::LogSumExpRows(in[0], mask));
      },
      {Param(3, 4, 33)});
}

TEST(AutogradOps, LogSumExpRowsStableAtLargeValues) {
  Matrix big(2, 3, 1000.0);
  big(0, 1) = 1001.0;
  Variable x(big, true);
  Variable lse = ag::LogSumExpRows(x, Matrix(2, 3, 1.0));
  EXPECT_TRUE(lse.value().AllFinite());
  EXPECT_NEAR(lse.value()(1, 0), 1000.0 + std::log(3.0), 1e-9);
}

TEST(AutogradOps, AddRowBroadcastGradient) {
  ExpectGradOk(
      [](const VarList& in) {
        return ag::Sum(ag::Square(ag::AddRowBroadcast(in[0], in[1])));
      },
      {Param(4, 3, 34), Param(1, 3, 35)});
}

TEST(AutogradOps, ConcatSliceGatherGradients) {
  ExpectGradOk(
      [](const VarList& in) {
        return ag::Sum(ag::Square(ag::ConcatRows(in[0], in[1])));
      },
      {Param(2, 3, 36), Param(3, 3, 37)});
  ExpectGradOk(
      [](const VarList& in) {
        return ag::Sum(ag::Square(ag::GatherRows(in[0], {0, 2, 2, 1})));
      },
      {Param(3, 3, 39)});
}

TEST(AutogradOps, SegmentGradients) {
  const std::vector<int> segments = {0, 0, 1, 2, 2, 2};
  ExpectGradOk(
      [segments](const VarList& in) {
        return ag::Sum(ag::Square(ag::SegmentSum(in[0], segments, 3)));
      },
      {Param(6, 3, 40)});
  ExpectGradOk(
      [segments](const VarList& in) {
        return ag::Sum(ag::Square(ag::SegmentMean(in[0], segments, 3)));
      },
      {Param(6, 3, 41)});
}

TEST(AutogradOps, SegmentMeanHandlesEmptySegments) {
  const std::vector<int> segments = {0, 2};  // segment 1 is empty
  Variable x = Param(2, 2, 42);
  Variable out = ag::SegmentMean(x, segments, 3);
  EXPECT_DOUBLE_EQ(out.value()(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(out.value()(1, 1), 0.0);
}

TEST(AutogradOps, SoftmaxCrossEntropyGradient) {
  const std::vector<int> labels = {0, 2, 1, 2};
  ExpectGradOk(
      [labels](const VarList& in) {
        return ag::SoftmaxCrossEntropy(in[0], labels);
      },
      {Param(4, 3, 43)});
}

TEST(AutogradOps, SoftmaxCrossEntropyKnownValue) {
  // Uniform logits over c classes: CE = log(c).
  Variable logits(Matrix(2, 4, 0.0), true);
  Variable loss = ag::SoftmaxCrossEntropy(logits, {1, 3});
  EXPECT_NEAR(loss.scalar(), std::log(4.0), 1e-12);
}

TEST(AutogradOps, BceWithLogitsGradient) {
  Matrix targets{{1, 0}, {0, 1}, {1, 1}};
  ExpectGradOk(
      [targets](const VarList& in) {
        return ag::BinaryCrossEntropyWithLogits(in[0], targets);
      },
      {Param(3, 2, 44)});
}

TEST(AutogradOps, BceWithLogitsKnownValue) {
  // Zero logits: loss = log(2) regardless of the targets.
  Variable logits(Matrix(2, 2, 0.0), true);
  Variable loss =
      ag::BinaryCrossEntropyWithLogits(logits, Matrix{{1, 0}, {0, 1}});
  EXPECT_NEAR(loss.scalar(), std::log(2.0), 1e-12);
}

TEST(AutogradOps, BceWithLogitsStableAtExtremeLogits) {
  Variable logits(Matrix{{1000, -1000}}, true);
  Variable loss =
      ag::BinaryCrossEntropyWithLogits(logits, Matrix{{1, 0}});
  EXPECT_TRUE(loss.value().AllFinite());
  EXPECT_NEAR(loss.scalar(), 0.0, 1e-9);
}

TEST(AutogradOps, DropoutZeroProbabilityIsIdentity) {
  Rng rng(45);
  Variable x = Param(4, 4, 46);
  Variable y = ag::Dropout(x, 0.0, rng);
  EXPECT_TRUE(AllClose(x.value(), y.value()));
}

TEST(AutogradOps, DropoutPreservesExpectation) {
  Rng rng(47);
  Variable x(Matrix(200, 200, 1.0), true);
  Variable y = ag::Dropout(x, 0.3, rng);
  EXPECT_NEAR(y.value().Mean(), 1.0, 0.02);  // inverted dropout
}

// --- Tape mechanics ---------------------------------------------------------

TEST(AutogradTape, GradientAccumulatesAcrossBackwards) {
  Variable x = Param(2, 2, 48);
  Variable loss1 = ag::Sum(x);
  Backward(loss1);
  Matrix after_first = x.grad();
  Variable loss2 = ag::Sum(x);
  Backward(loss2);
  Matrix doubled = after_first;
  doubled *= 2.0;
  EXPECT_TRUE(AllClose(x.grad(), doubled, 1e-12));
}

TEST(AutogradTape, ZeroGradResets) {
  Variable x = Param(2, 2, 49);
  Backward(ag::Sum(x));
  x.ZeroGrad();
  EXPECT_DOUBLE_EQ(x.grad().FrobeniusNorm(), 0.0);
}

TEST(AutogradTape, DiamondGraphDoubleCounts) {
  // loss = sum(x + x): gradient must be 2 everywhere.
  Variable x = Param(2, 2, 50);
  Backward(ag::Sum(ag::Add(x, x)));
  EXPECT_TRUE(AllClose(x.grad(), Matrix(2, 2, 2.0), 1e-12));
}

TEST(AutogradTape, DetachBlocksGradient) {
  Variable x = Param(2, 2, 51);
  Variable loss = ag::Sum(ag::Hadamard(x.Detach(), x));
  Backward(loss);
  // d/dx of detach(x) * x is detach(x), not 2x.
  EXPECT_TRUE(AllClose(x.grad(), x.value(), 1e-12));
}

TEST(AutogradTape, ConstantsReceiveNoGradients) {
  Variable c(Matrix(2, 2, 3.0));  // requires_grad = false
  Variable x = Param(2, 2, 52);
  Backward(ag::Sum(ag::Hadamard(c, x)));
  EXPECT_TRUE(AllClose(x.grad(), c.value(), 1e-12));
  EXPECT_DOUBLE_EQ(c.grad().FrobeniusNorm(), 0.0);
}

TEST(AutogradTape, ConstantSubgraphsGetNoGradient) {
  // A first GNN layer aggregates constant features: A · X is an op node
  // whose inputs are all constants, and so is anything built on it
  // alone. Nothing reads their gradients, so Backward computes none.
  const SparseMatrix a(3, 3, {{0, 0, 1.0}, {0, 1, 1.0}, {1, 0, 1.0},
                              {1, 1, 1.0}, {2, 2, 1.0}});
  Variable ax = ag::SparseLeftMatMul(a, Variable(Matrix(3, 2, 0.5)));
  Variable scaled = ag::ScalarMul(ax, 2.0);
  Variable w = Param(2, 4, 56);
  Backward(ag::Sum(ag::MatMul(scaled, w)));
  EXPECT_FALSE(ax.node()->grad_initialized);
  EXPECT_FALSE(scaled.node()->grad_initialized);
  EXPECT_TRUE(AllClose(
      w.grad(), MatMulTransA(scaled.value(), Matrix(3, 4, 1.0)), 1e-12));
}

TEST(AutogradTape, ParameterReuseAcrossGraphs) {
  // The same parameter node used in two separate forward passes (as an
  // optimiser would) accumulates both contributions.
  Variable w = Param(2, 2, 53);
  Backward(ag::Sum(ag::ScalarMul(w, 3.0)));
  Backward(ag::Sum(ag::ScalarMul(w, 4.0)));
  EXPECT_TRUE(AllClose(w.grad(), Matrix(2, 2, 7.0), 1e-12));
}

TEST(AutogradTape, AdoptedFirstDeltaReadsAsSumFromZero) {
  // The first delta is adopted rather than added to zeros. Readers must
  // still see 0.0 + d0 + d1 + d2, added in arrival order: -0.0 reads
  // back as +0.0, and the order shows in the rounding (1e16 + 1 + 1
  // stays 1e16; 1e16 + 2 would not).
  Variable x(Matrix(1, 4, 1.0), /*requires_grad=*/true);
  internal::Node& node = *x.node();
  const Matrix d0{{-0.0, 1e16, 1.0, -0.0}};
  node.AccumulateGrad(d0);  // lvalue: copied, d0 untouched
  node.AccumulateGrad(Matrix{{-0.0, 1.0, 1e16, 2.5}});
  node.AccumulateGrad(Matrix{{-0.0, 1.0, -1e16, -2.5}});
  EXPECT_EQ(Bits(d0(0, 0)), Bits(-0.0));
  const double expected[4] = {((0.0 + -0.0) + -0.0) + -0.0,
                              ((0.0 + 1e16) + 1.0) + 1.0,
                              ((0.0 + 1.0) + 1e16) + -1e16,
                              ((0.0 + -0.0) + 2.5) + -2.5};
  for (int j = 0; j < 4; ++j) {
    EXPECT_EQ(Bits(x.grad()(0, j)), Bits(expected[j])) << "entry " << j;
  }
  EXPECT_EQ(Bits(x.grad()(0, 0)), Bits(0.0));
  EXPECT_EQ(x.grad()(0, 1), 1e16);
  EXPECT_EQ(Bits(x.grad()(0, 3)), Bits(0.0));
}

TEST(AutogradTape, NegativeZeroGradientReadsAsPositiveZero) {
  // Through a real backward: ScalarMul by -0.0 hands x a first delta of
  // all -0.0, which a zero-filled accumulator would have read as +0.0.
  Variable x = Param(2, 3, 57);
  Backward(ag::Sum(ag::ScalarMul(x, -0.0)));
  for (int i = 0; i < x.grad().size(); ++i) {
    EXPECT_EQ(Bits(x.grad().at_flat(i)), Bits(0.0)) << "entry " << i;
  }
  // A second pass adds to the now-canonical gradient.
  Backward(ag::Sum(ag::ScalarMul(x, -0.0)));
  for (int i = 0; i < x.grad().size(); ++i) {
    EXPECT_EQ(Bits(x.grad().at_flat(i)), Bits(0.0)) << "entry " << i;
  }
}

TEST(AutogradTape, DeepChainBackward) {
  Variable x = Param(2, 2, 54, 0.01);
  Variable h = x;
  for (int i = 0; i < 50; ++i) h = ag::Tanh(h);
  Backward(ag::Sum(h));
  EXPECT_TRUE(x.grad().AllFinite());
}

TEST(AutogradTapeDeathTest, NonScalarBackwardAborts) {
  Variable x = Param(2, 3, 55);
  EXPECT_DEATH(Backward(x), "scalar");
}

TEST(AutogradTapeDeathTest, NullVariableAborts) {
  Variable null;
  EXPECT_DEATH(Backward(null), "null");
  EXPECT_DEATH(null.value(), "null");
}

// --- Composite gradcheck sweep ------------------------------------------------

struct CompositeCase {
  int n;
  int d;
};

class CompositeSweep
    : public ::testing::TestWithParam<CompositeCase> {};

// An MLP-shaped composite touching matmul, bias broadcast, relu,
// normalisation, and reductions at several shapes.
TEST_P(CompositeSweep, MlpLikeCompositeGradOk) {
  const auto [n, d] = GetParam();
  Variable x = Param(n, d, 60 + n);
  Variable w = Param(d, d, 61 + d);
  Variable b = Param(1, d, 62 + n + d);
  ExpectGradOk(
      [](const VarList& in) {
        Variable h = ag::Relu(
            ag::AddRowBroadcast(ag::MatMul(in[0], in[1]), in[2]));
        return ag::Mean(ag::Square(ag::RowNormalize(h)));
      },
      {x, w, b}, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CompositeSweep,
    ::testing::Values(CompositeCase{2, 3}, CompositeCase{4, 4},
                      CompositeCase{6, 2}, CompositeCase{3, 8}));

}  // namespace
}  // namespace gradgcl
