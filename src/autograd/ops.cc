#include "autograd/ops.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "tensor/ops.h"

namespace gradgcl::ag {

namespace {

using internal::Node;

// Shorthand: does a node participate in gradient flow? An op node does
// only if it got a backward closure, i.e. some ancestor is a parameter;
// an op on constants alone gets no gradient (nothing would read it).
bool NeedsGrad(const std::shared_ptr<Node>& n) {
  return n->requires_grad || static_cast<bool>(n->backward_fn);
}

}  // namespace

Variable FromScalar(double value) { return Variable(Matrix(1, 1, value)); }

Variable Add(const Variable& a, const Variable& b) {
  GRADGCL_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  return Variable::MakeOp(a.value() + b.value(), {a, b}, [](Node& out) {
    if (NeedsGrad(out.parents[0])) out.parents[0]->AccumulateGrad(out.grad);
    if (NeedsGrad(out.parents[1])) out.parents[1]->AccumulateGrad(out.grad);
  });
}

Variable Sub(const Variable& a, const Variable& b) {
  GRADGCL_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  return Variable::MakeOp(a.value() - b.value(), {a, b}, [](Node& out) {
    if (NeedsGrad(out.parents[0])) out.parents[0]->AccumulateGrad(out.grad);
    if (NeedsGrad(out.parents[1])) {
      Matrix neg = out.grad;
      neg *= -1.0;
      out.parents[1]->AccumulateGrad(std::move(neg));
    }
  });
}

Variable Neg(const Variable& a) { return ScalarMul(a, -1.0); }

Variable ScalarMul(const Variable& a, double s) {
  return Variable::MakeOp(a.value() * s, {a}, [s](Node& out) {
    if (NeedsGrad(out.parents[0])) {
      Matrix g = out.grad;
      g *= s;
      out.parents[0]->AccumulateGrad(std::move(g));
    }
  });
}

Variable ScalarAdd(const Variable& a, double s) {
  Matrix v = a.value();
  for (int i = 0; i < v.size(); ++i) v.at_flat(i) += s;
  return Variable::MakeOp(std::move(v), {a}, [](Node& out) {
    if (NeedsGrad(out.parents[0])) out.parents[0]->AccumulateGrad(out.grad);
  });
}

Variable Hadamard(const Variable& a, const Variable& b) {
  GRADGCL_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  return Variable::MakeOp(
      gradgcl::Hadamard(a.value(), b.value()), {a, b}, [](Node& out) {
        if (NeedsGrad(out.parents[0])) {
          out.parents[0]->AccumulateGrad(
              gradgcl::Hadamard(out.grad, out.parents[1]->value));
        }
        if (NeedsGrad(out.parents[1])) {
          out.parents[1]->AccumulateGrad(
              gradgcl::Hadamard(out.grad, out.parents[0]->value));
        }
      });
}

Variable MatMul(const Variable& a, const Variable& b) {
  return Variable::MakeOp(
      gradgcl::MatMul(a.value(), b.value()), {a, b}, [](Node& out) {
        // out = A B;  dA = G B^T,  dB = A^T G.
        if (NeedsGrad(out.parents[0])) {
          out.parents[0]->AccumulateGrad(
              MatMulTransB(out.grad, out.parents[1]->value));
        }
        if (NeedsGrad(out.parents[1])) {
          out.parents[1]->AccumulateGrad(
              MatMulTransA(out.parents[0]->value, out.grad));
        }
      });
}

Variable MatMulTransB(const Variable& a, const Variable& b) {
  return Variable::MakeOp(
      gradgcl::MatMulTransB(a.value(), b.value()), {a, b}, [](Node& out) {
        // out = A B^T;  dA = G B,  dB = G^T A.
        if (NeedsGrad(out.parents[0])) {
          out.parents[0]->AccumulateGrad(
              gradgcl::MatMul(out.grad, out.parents[1]->value));
        }
        if (NeedsGrad(out.parents[1])) {
          out.parents[1]->AccumulateGrad(
              MatMulTransA(out.grad, out.parents[0]->value));
        }
      });
}

Variable ConstLeftMatMul(const Matrix& c, const Variable& a) {
  // Capture c by value: the caller's matrix may not outlive the tape.
  return Variable::MakeOp(gradgcl::MatMul(c, a.value()), {a}, [c](Node& out) {
    if (NeedsGrad(out.parents[0])) {
      out.parents[0]->AccumulateGrad(MatMulTransA(c, out.grad));
    }
  });
}

Variable SparseLeftMatMul(const SparseMatrix& s, const Variable& a) {
  Matrix y = s.Multiply(a.value());
  // A constant operand (layer 1's input features) needs no backward,
  // so nothing of s is kept for it.
  if (!NeedsGrad(a.node())) return Variable(std::move(y));
  // The closure owns s^T (the caller's operator may not outlive the
  // tape); building it costs about what copying s would, and backward
  // is then the same row-parallel gather as the forward.
  return Variable::MakeOp(std::move(y), {a}, [st = s.Transposed()](Node& out) {
    out.parents[0]->AccumulateGrad(st.Multiply(out.grad));
  });
}

Variable Linear(const Variable& x, const Variable& w, const Variable& b) {
  return Variable::MakeOp(
      MatMulBias(x.value(), w.value(), b.value()), {x, w, b},
      [](Node& out) {
        // The composition's AddRowBroadcast node sends ColSum(G) to b
        // and G itself to its MatMul node, which sends G W^T to x and
        // x^T G to W: the same kernels on the same G, in the same order.
        const Matrix& g = out.grad;
        if (NeedsGrad(out.parents[2])) {
          out.parents[2]->AccumulateGrad(ColSum(g));
        }
        if (NeedsGrad(out.parents[0])) {
          out.parents[0]->AccumulateGrad(
              gradgcl::MatMulTransB(g, out.parents[1]->value));
        }
        if (NeedsGrad(out.parents[1])) {
          out.parents[1]->AccumulateGrad(
              MatMulTransA(out.parents[0]->value, g));
        }
      });
}

Variable Transpose(const Variable& a) {
  return Variable::MakeOp(a.value().Transposed(), {a}, [](Node& out) {
    if (NeedsGrad(out.parents[0])) {
      out.parents[0]->AccumulateGrad(out.grad.Transposed());
    }
  });
}

Variable Relu(const Variable& a) {
  return Variable::MakeOp(gradgcl::Relu(a.value()), {a}, [](Node& out) {
    if (NeedsGrad(out.parents[0])) {
      // A select, not a branch: the signs are close to 50/50, so a
      // branch mispredicts half the time. NaN inputs pass the gradient.
      Matrix g = out.grad;
      double* gd = g.data();
      const double* x = out.parents[0]->value.data();
      const int n = g.size();
      for (int i = 0; i < n; ++i) gd[i] = x[i] <= 0.0 ? 0.0 : gd[i];
      out.parents[0]->AccumulateGrad(std::move(g));
    }
  });
}

Variable LeakyRelu(const Variable& a, double slope) {
  GRADGCL_CHECK(slope > 0.0 && slope < 1.0);
  Matrix y = Map(a.value(),
                 [slope](double v) { return v > 0.0 ? v : slope * v; });
  return Variable::MakeOp(std::move(y), {a}, [slope](Node& out) {
    if (NeedsGrad(out.parents[0])) {
      // Branch-free like Relu's backward.
      Matrix g = out.grad;
      double* gd = g.data();
      const double* x = out.parents[0]->value.data();
      const int n = g.size();
      for (int i = 0; i < n; ++i) gd[i] = x[i] <= 0.0 ? gd[i] * slope : gd[i];
      out.parents[0]->AccumulateGrad(std::move(g));
    }
  });
}

Variable Tanh(const Variable& a) {
  return Variable::MakeOp(gradgcl::Tanh(a.value()), {a}, [](Node& out) {
    if (NeedsGrad(out.parents[0])) {
      Matrix g = out.grad;
      for (int i = 0; i < g.size(); ++i) {
        const double y = out.value.at_flat(i);
        g.at_flat(i) *= 1.0 - y * y;
      }
      out.parents[0]->AccumulateGrad(std::move(g));
    }
  });
}

Variable Sigmoid(const Variable& a) {
  Matrix y = Map(a.value(), [](double v) { return 1.0 / (1.0 + std::exp(-v)); });
  return Variable::MakeOp(std::move(y), {a}, [](Node& out) {
    if (NeedsGrad(out.parents[0])) {
      Matrix g = out.grad;
      for (int i = 0; i < g.size(); ++i) {
        const double s = out.value.at_flat(i);
        g.at_flat(i) *= s * (1.0 - s);
      }
      out.parents[0]->AccumulateGrad(std::move(g));
    }
  });
}

Variable Exp(const Variable& a) {
  return Variable::MakeOp(gradgcl::Exp(a.value()), {a}, [](Node& out) {
    if (NeedsGrad(out.parents[0])) {
      out.parents[0]->AccumulateGrad(gradgcl::Hadamard(out.grad, out.value));
    }
  });
}

Variable LogEps(const Variable& a, double eps) {
  Matrix y = Map(a.value(), [eps](double v) { return std::log(v + eps); });
  return Variable::MakeOp(std::move(y), {a}, [eps](Node& out) {
    if (NeedsGrad(out.parents[0])) {
      Matrix g = out.grad;
      const Matrix& x = out.parents[0]->value;
      for (int i = 0; i < g.size(); ++i) g.at_flat(i) /= x.at_flat(i) + eps;
      out.parents[0]->AccumulateGrad(std::move(g));
    }
  });
}

Variable Sqrt(const Variable& a, double eps) {
  Matrix y = Map(a.value(), [eps](double v) { return std::sqrt(v + eps); });
  return Variable::MakeOp(std::move(y), {a}, [](Node& out) {
    if (NeedsGrad(out.parents[0])) {
      Matrix g = out.grad;
      for (int i = 0; i < g.size(); ++i) {
        g.at_flat(i) *= 0.5 / out.value.at_flat(i);
      }
      out.parents[0]->AccumulateGrad(std::move(g));
    }
  });
}

Variable Square(const Variable& a) {
  return Variable::MakeOp(
      gradgcl::Hadamard(a.value(), a.value()), {a}, [](Node& out) {
        if (NeedsGrad(out.parents[0])) {
          Matrix g = gradgcl::Hadamard(out.grad, out.parents[0]->value);
          g *= 2.0;
          out.parents[0]->AccumulateGrad(std::move(g));
        }
      });
}

Variable Reciprocal(const Variable& a, double eps) {
  Matrix y = Map(a.value(), [eps](double v) { return 1.0 / (v + eps); });
  return Variable::MakeOp(std::move(y), {a}, [](Node& out) {
    if (NeedsGrad(out.parents[0])) {
      Matrix g = out.grad;
      for (int i = 0; i < g.size(); ++i) {
        const double y = out.value.at_flat(i);
        g.at_flat(i) *= -y * y;
      }
      out.parents[0]->AccumulateGrad(std::move(g));
    }
  });
}

Variable ScaleRowsVar(const Variable& a, const Variable& scale) {
  GRADGCL_CHECK(scale.rows() == a.rows() && scale.cols() == 1);
  return Variable::MakeOp(
      ScaleRows(a.value(), scale.value()), {a, scale}, [](Node& out) {
        const Matrix& g = out.grad;
        if (NeedsGrad(out.parents[0])) {
          out.parents[0]->AccumulateGrad(ScaleRows(g, out.parents[1]->value));
        }
        if (NeedsGrad(out.parents[1])) {
          const Matrix& av = out.parents[0]->value;
          Matrix gs(av.rows(), 1, 0.0);
          for (int i = 0; i < av.rows(); ++i) {
            double dot = 0.0;
            for (int j = 0; j < av.cols(); ++j) dot += g(i, j) * av(i, j);
            gs(i, 0) = dot;
          }
          out.parents[1]->AccumulateGrad(std::move(gs));
        }
      });
}

Variable Dropout(const Variable& a, double p, Rng& rng) {
  GRADGCL_CHECK(p >= 0.0 && p < 1.0);
  if (p == 0.0) return a;
  Matrix mask(a.rows(), a.cols());
  const double keep_scale = 1.0 / (1.0 - p);
  for (int i = 0; i < mask.size(); ++i) {
    mask.at_flat(i) = rng.Bernoulli(p) ? 0.0 : keep_scale;
  }
  return Variable::MakeOp(
      gradgcl::Hadamard(a.value(), mask), {a}, [mask](Node& out) {
        if (NeedsGrad(out.parents[0])) {
          out.parents[0]->AccumulateGrad(gradgcl::Hadamard(out.grad, mask));
        }
      });
}

Variable Sum(const Variable& a) {
  return Variable::MakeOp(Matrix(1, 1, a.value().Sum()), {a}, [](Node& out) {
    if (NeedsGrad(out.parents[0])) {
      const Matrix& x = out.parents[0]->value;
      out.parents[0]->AccumulateGrad(
          Matrix(x.rows(), x.cols(), out.grad(0, 0)));
    }
  });
}

Variable Mean(const Variable& a) {
  GRADGCL_CHECK(a.value().size() > 0);
  return ScalarMul(Sum(a), 1.0 / a.value().size());
}

Variable SumRows(const Variable& a) {
  return Variable::MakeOp(RowSum(a.value()), {a}, [](Node& out) {
    if (NeedsGrad(out.parents[0])) {
      const Matrix& x = out.parents[0]->value;
      Matrix g(x.rows(), x.cols());
      for (int i = 0; i < x.rows(); ++i) {
        for (int j = 0; j < x.cols(); ++j) g(i, j) = out.grad(i, 0);
      }
      out.parents[0]->AccumulateGrad(std::move(g));
    }
  });
}

Variable MeanRows(const Variable& a) {
  GRADGCL_CHECK(a.cols() > 0);
  return ScalarMul(SumRows(a), 1.0 / a.cols());
}

Variable RowNormalize(const Variable& a, double eps) {
  const Matrix& x = a.value();
  Matrix norms = RowNorms(x);
  Matrix y = x;
  for (int i = 0; i < x.rows(); ++i) {
    const double r = norms(i, 0);
    if (r < eps) continue;
    const double inv = 1.0 / r;
    for (int j = 0; j < x.cols(); ++j) y(i, j) *= inv;
  }
  return Variable::MakeOp(std::move(y), {a}, [norms, eps](Node& out) {
    if (!NeedsGrad(out.parents[0])) return;
    const Matrix& y = out.value;
    const Matrix& g = out.grad;
    Matrix gx(y.rows(), y.cols(), 0.0);
    for (int i = 0; i < y.rows(); ++i) {
      const double r = norms(i, 0);
      if (r < eps) continue;  // forward passed the row unscaled: treat as const
      double dot = 0.0;
      for (int j = 0; j < y.cols(); ++j) dot += y(i, j) * g(i, j);
      const double inv = 1.0 / r;
      for (int j = 0; j < y.cols(); ++j) {
        gx(i, j) = (g(i, j) - y(i, j) * dot) * inv;
      }
    }
    out.parents[0]->AccumulateGrad(std::move(gx));
  });
}

Variable RowPairDot(const Variable& a, const Variable& b) {
  GRADGCL_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix out(a.rows(), 1);
  for (int i = 0; i < a.rows(); ++i) {
    double dot = 0.0;
    for (int j = 0; j < a.cols(); ++j) dot += a.value()(i, j) * b.value()(i, j);
    out(i, 0) = dot;
  }
  return Variable::MakeOp(std::move(out), {a, b}, [](Node& out_node) {
    const Matrix& g = out_node.grad;  // n x 1
    if (NeedsGrad(out_node.parents[0])) {
      out_node.parents[0]->AccumulateGrad(
          ScaleRows(out_node.parents[1]->value, g));
    }
    if (NeedsGrad(out_node.parents[1])) {
      out_node.parents[1]->AccumulateGrad(
          ScaleRows(out_node.parents[0]->value, g));
    }
  });
}

Variable PairwiseSquaredDistances(const Variable& a, const Variable& b) {
  GRADGCL_CHECK(a.cols() == b.cols());
  return Variable::MakeOp(
      SquaredDistanceMatrix(a.value(), b.value()), {a, b}, [](Node& out) {
        const Matrix& g = out.grad;  // n x m
        const Matrix& av = out.parents[0]->value;
        const Matrix& bv = out.parents[1]->value;
        // d|a_i - b_j|^2 / da_i = 2 (a_i - b_j):
        //   dA = 2 (diag(rowsum g) A - G B);  dB = 2 (diag(colsum g) B - G^T A).
        if (NeedsGrad(out.parents[0])) {
          Matrix da = ScaleRows(av, RowSum(g));
          da -= gradgcl::MatMul(g, bv);
          da *= 2.0;
          out.parents[0]->AccumulateGrad(std::move(da));
        }
        if (NeedsGrad(out.parents[1])) {
          Matrix db = ScaleRows(bv, ColSum(g).Transposed());
          db -= MatMulTransA(g, av);
          db *= 2.0;
          out.parents[1]->AccumulateGrad(std::move(db));
        }
      });
}

Variable LogSumExpRows(const Variable& a, const Matrix& mask) {
  const Matrix& x = a.value();
  GRADGCL_CHECK(mask.rows() == x.rows() && mask.cols() == x.cols());
  Matrix out(x.rows(), 1);
  for (int i = 0; i < x.rows(); ++i) {
    double mx = -1e300;
    bool any = false;
    for (int j = 0; j < x.cols(); ++j) {
      if (mask(i, j) != 0.0) {
        mx = std::max(mx, x(i, j));
        any = true;
      }
    }
    GRADGCL_CHECK_MSG(any, "LogSumExpRows: a row masks out every entry");
    double z = 0.0;
    for (int j = 0; j < x.cols(); ++j) {
      if (mask(i, j) != 0.0) z += std::exp(x(i, j) - mx);
    }
    out(i, 0) = mx + std::log(z);
  }
  return Variable::MakeOp(std::move(out), {a}, [mask](Node& out_node) {
    if (!NeedsGrad(out_node.parents[0])) return;
    const Matrix& x = out_node.parents[0]->value;
    const Matrix& lse = out_node.value;  // n x 1
    const Matrix& g = out_node.grad;     // n x 1
    Matrix gx(x.rows(), x.cols(), 0.0);
    for (int i = 0; i < x.rows(); ++i) {
      for (int j = 0; j < x.cols(); ++j) {
        if (mask(i, j) != 0.0) {
          gx(i, j) = g(i, 0) * std::exp(x(i, j) - lse(i, 0));
        }
      }
    }
    out_node.parents[0]->AccumulateGrad(std::move(gx));
  });
}

Variable MaskedRowSoftmax(const Variable& a, const Matrix& mask) {
  const Matrix& x = a.value();
  GRADGCL_CHECK(mask.rows() == x.rows() && mask.cols() == x.cols());
  Matrix y(x.rows(), x.cols(), 0.0);
  for (int i = 0; i < x.rows(); ++i) {
    double mx = -1e300;
    bool any = false;
    for (int j = 0; j < x.cols(); ++j) {
      if (mask(i, j) != 0.0) {
        mx = std::max(mx, x(i, j));
        any = true;
      }
    }
    GRADGCL_CHECK_MSG(any, "MaskedRowSoftmax: a row masks out every entry");
    double z = 0.0;
    for (int j = 0; j < x.cols(); ++j) {
      if (mask(i, j) != 0.0) {
        y(i, j) = std::exp(x(i, j) - mx);
        z += y(i, j);
      }
    }
    const double inv = 1.0 / z;
    for (int j = 0; j < x.cols(); ++j) y(i, j) *= inv;
  }
  return Variable::MakeOp(std::move(y), {a}, [mask](Node& out) {
    if (!NeedsGrad(out.parents[0])) return;
    const Matrix& y = out.value;
    const Matrix& g = out.grad;
    Matrix gx(y.rows(), y.cols(), 0.0);
    for (int i = 0; i < y.rows(); ++i) {
      // d softmax: y ⊙ (g − <g, y>), restricted to the mask's support.
      double dot = 0.0;
      for (int j = 0; j < y.cols(); ++j) dot += g(i, j) * y(i, j);
      for (int j = 0; j < y.cols(); ++j) {
        if (mask(i, j) != 0.0) gx(i, j) = y(i, j) * (g(i, j) - dot);
      }
    }
    out.parents[0]->AccumulateGrad(std::move(gx));
  });
}

// The fused backward closures below replay the exact FP operation
// sequence of the unfused chains they replace (same kernels, same
// rounding points), so fused and unfused paths agree bit-for-bit —
// including across thread counts, since every kernel involved keeps
// reductions chunk-local. tests/pool_test.cc pins the equivalence
// with exact (not tolerance) comparisons.

Variable MatMulTransBScaled(const Variable& a, const Variable& b,
                            double scale) {
  return Variable::MakeOp(
      gradgcl::MatMulTransBScaled(a.value(), b.value(), scale), {a, b},
      [scale](Node& out) {
        // Unfused: ScalarMul feeds G * scale into the MatMulTransB
        // node, which then produces dA = (G s) B and dB = (G s)^T A.
        Matrix g = out.grad;
        g *= scale;
        if (NeedsGrad(out.parents[0])) {
          out.parents[0]->AccumulateGrad(
              gradgcl::MatMul(g, out.parents[1]->value));
        }
        if (NeedsGrad(out.parents[1])) {
          out.parents[1]->AccumulateGrad(
              MatMulTransA(g, out.parents[0]->value));
        }
      });
}

Variable CosineGram(const Variable& u, double inv_tau, Variable* normalized) {
  Variable un = RowNormalize(u);
  if (normalized != nullptr) *normalized = un;
  return MatMulTransBScaled(un, un, inv_tau);
}

Variable MaskedExpRowSum(const Variable& s, Variable* exp_out) {
  GRADGCL_CHECK(s.rows() == s.cols());
  Matrix e, rs;
  gradgcl::MaskedExpRowSum(s.value(), &e, &rs);
  Variable exp_s = Variable::MakeOp(std::move(e), {s}, [](Node& out) {
    if (!NeedsGrad(out.parents[0])) return;
    // d exp(s)/ds multiplied by the incoming grad; the stored diagonal
    // zeros reproduce the unfused mask path's G_ii * 0.0.
    out.parents[0]->AccumulateGrad(gradgcl::Hadamard(out.grad, out.value));
  });
  if (exp_out != nullptr) *exp_out = exp_s;
  return Variable::MakeOp(std::move(rs), {exp_s}, [](Node& out) {
    // Identical to the SumRows backward broadcast.
    if (!NeedsGrad(out.parents[0])) return;
    const Matrix& x = out.parents[0]->value;
    Matrix g = Matrix::Uninitialized(x.rows(), x.cols());
    for (int i = 0; i < x.rows(); ++i) {
      for (int j = 0; j < x.cols(); ++j) g(i, j) = out.grad(i, 0);
    }
    out.parents[0]->AccumulateGrad(std::move(g));
  });
}

Variable ScaleRowsMatMul(const Variable& a, const Variable& scale,
                         const Variable& b, double post) {
  GRADGCL_CHECK(scale.rows() == a.rows() && scale.cols() == 1);
  return Variable::MakeOp(
      ScaleRowsMatMulScaled(a.value(), scale.value(), b.value(), post),
      {a, scale, b}, [post](Node& out) {
        const Matrix& av = out.parents[0]->value;
        const Matrix& sv = out.parents[1]->value;
        const Matrix& bv = out.parents[2]->value;
        Matrix g = out.grad;
        g *= post;
        const bool need_a = NeedsGrad(out.parents[0]);
        const bool need_s = NeedsGrad(out.parents[1]);
        // Grad of the (unstored) scaled-rows intermediate, as the
        // unfused MatMul backward would compute it.
        Matrix ga;
        if (need_a || need_s) ga = gradgcl::MatMulTransB(g, bv);
        if (need_a) out.parents[0]->AccumulateGrad(ScaleRows(ga, sv));
        if (need_s) {
          Matrix gs(av.rows(), 1, 0.0);
          for (int i = 0; i < av.rows(); ++i) {
            double dot = 0.0;
            for (int j = 0; j < av.cols(); ++j) dot += ga(i, j) * av(i, j);
            gs(i, 0) = dot;
          }
          out.parents[1]->AccumulateGrad(std::move(gs));
        }
        if (NeedsGrad(out.parents[2])) {
          // Recomputing diag(s) a costs the same FP ops as the forward
          // ScaleRows did in the unfused path, so the bits match the
          // stored intermediate it replaces.
          out.parents[2]->AccumulateGrad(
              MatMulTransA(ScaleRows(av, sv), g));
        }
      });
}

Variable MatMulScaled(const Variable& a, const Variable& b, double post) {
  Matrix y = gradgcl::MatMul(a.value(), b.value());
  y *= post;
  return Variable::MakeOp(std::move(y), {a, b}, [post](Node& out) {
    Matrix g = out.grad;
    g *= post;
    if (NeedsGrad(out.parents[0])) {
      out.parents[0]->AccumulateGrad(
          gradgcl::MatMulTransB(g, out.parents[1]->value));
    }
    if (NeedsGrad(out.parents[1])) {
      out.parents[1]->AccumulateGrad(
          MatMulTransA(out.parents[0]->value, g));
    }
  });
}

Variable OffDiagSigmoid(const Variable& a) {
  return Variable::MakeOp(
      gradgcl::OffDiagSigmoid(a.value()), {a}, [](Node& out) {
        if (!NeedsGrad(out.parents[0])) return;
        const int n = out.value.rows();
        Matrix g = out.grad;
        for (int i = 0; i < n; ++i) {
          for (int j = 0; j < n; ++j) {
            if (i == j) {
              g(i, j) *= 0.0;  // the unfused mask's G_ii * 0.0
            } else {
              const double s = out.value(i, j);
              g(i, j) *= s * (1.0 - s);
            }
          }
        }
        out.parents[0]->AccumulateGrad(std::move(g));
      });
}

Variable LogSumExpOffDiag(const Variable& a) {
  const Matrix& x = a.value();
  GRADGCL_CHECK(x.rows() == x.cols());
  const int64_t n = x.rows();
  GRADGCL_CHECK_MSG(n >= 2, "LogSumExpOffDiag needs >= 2 rows");
  Matrix out = Matrix::Uninitialized(x.rows(), 1);
  const double* xdata = x.data();
  double* odata = out.data();
  // Row-local (hence thread-count-invariant), and the same j-ascending
  // max/sum order as LogSumExpRows under the off-diagonal mask.
  const int64_t grain = std::max<int64_t>(1, (int64_t{1} << 15) / n);
  // ~one exp + compare per masked element, per the parallel.h cost
  // model's transcendental weighting.
  ParallelFor(0, n, grain, /*cost_per_iter=*/16 * n,
              [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      const double* xrow = xdata + i * n;
      double mx = -1e300;
      for (int64_t j = 0; j < n; ++j) {
        if (j != i) mx = std::max(mx, xrow[j]);
      }
      double z = 0.0;
      for (int64_t j = 0; j < n; ++j) {
        if (j != i) z += std::exp(xrow[j] - mx);
      }
      odata[i] = mx + std::log(z);
    }
  });
  return Variable::MakeOp(std::move(out), {a}, [](Node& out_node) {
    if (!NeedsGrad(out_node.parents[0])) return;
    const Matrix& x = out_node.parents[0]->value;
    const Matrix& lse = out_node.value;  // n x 1
    const Matrix& g = out_node.grad;     // n x 1
    Matrix gx(x.rows(), x.cols(), 0.0);
    for (int i = 0; i < x.rows(); ++i) {
      for (int j = 0; j < x.cols(); ++j) {
        if (j != i) gx(i, j) = g(i, 0) * std::exp(x(i, j) - lse(i, 0));
      }
    }
    out_node.parents[0]->AccumulateGrad(std::move(gx));
  });
}

Variable AddRowBroadcast(const Variable& a, const Variable& row) {
  GRADGCL_CHECK(row.rows() == 1 && row.cols() == a.cols());
  return Variable::MakeOp(
      gradgcl::AddRowBroadcast(a.value(), row.value()), {a, row},
      [](Node& out) {
        if (NeedsGrad(out.parents[0])) out.parents[0]->AccumulateGrad(out.grad);
        if (NeedsGrad(out.parents[1])) {
          out.parents[1]->AccumulateGrad(ColSum(out.grad));
        }
      });
}

Variable ConcatRows(const Variable& a, const Variable& b) {
  GRADGCL_CHECK(a.cols() == b.cols());
  const int na = a.rows();
  return Variable::MakeOp(
      VStack(a.value(), b.value()), {a, b}, [na](Node& out) {
        if (NeedsGrad(out.parents[0])) {
          out.parents[0]->AccumulateGrad(out.grad.RowSlice(0, na));
        }
        if (NeedsGrad(out.parents[1])) {
          out.parents[1]->AccumulateGrad(
              out.grad.RowSlice(na, out.grad.rows()));
        }
      });
}

Variable SliceRows(const Variable& a, int begin, int end) {
  GRADGCL_CHECK(begin >= 0 && begin <= end && end <= a.rows());
  return Variable::MakeOp(
      a.value().RowSlice(begin, end), {a}, [begin, end](Node& out) {
        if (!NeedsGrad(out.parents[0])) return;
        const Matrix& x = out.parents[0]->value;
        Matrix g(x.rows(), x.cols(), 0.0);
        for (int i = begin; i < end; ++i) {
          for (int j = 0; j < x.cols(); ++j) g(i, j) = out.grad(i - begin, j);
        }
        out.parents[0]->AccumulateGrad(std::move(g));
      });
}

Variable GatherRows(const Variable& a, const std::vector<int>& indices) {
  return Variable::MakeOp(
      a.value().Gather(indices), {a}, [indices](Node& out) {
        if (!NeedsGrad(out.parents[0])) return;
        const Matrix& x = out.parents[0]->value;
        Matrix g(x.rows(), x.cols(), 0.0);
        for (size_t i = 0; i < indices.size(); ++i) {
          for (int j = 0; j < x.cols(); ++j) {
            g(indices[i], j) += out.grad(static_cast<int>(i), j);
          }
        }
        out.parents[0]->AccumulateGrad(std::move(g));
      });
}

Variable SegmentSum(const Variable& a, const std::vector<int>& segments,
                    int num_segments) {
  // Forward through the raw kernel so the tape-free serving path
  // (serve/session.cc) shares its bits by construction.
  return Variable::MakeOp(gradgcl::SegmentSum(a.value(), segments,
                                              num_segments),
                          {a}, [segments](Node& out_node) {
    if (!NeedsGrad(out_node.parents[0])) return;
    const Matrix& x = out_node.parents[0]->value;
    Matrix g = Matrix::Uninitialized(x.rows(), x.cols());
    for (int i = 0; i < x.rows(); ++i) {
      for (int j = 0; j < x.cols(); ++j) g(i, j) = out_node.grad(segments[i], j);
    }
    out_node.parents[0]->AccumulateGrad(std::move(g));
  });
}

Variable SegmentMean(const Variable& a, const std::vector<int>& segments,
                     int num_segments) {
  std::vector<double> counts;
  Matrix y = gradgcl::SegmentMean(a.value(), segments, num_segments, &counts);
  return Variable::MakeOp(
      std::move(y), {a},
      [segments, counts = std::move(counts)](Node& out_node) {
        if (!NeedsGrad(out_node.parents[0])) return;
        const Matrix& x = out_node.parents[0]->value;
        Matrix g = Matrix::Uninitialized(x.rows(), x.cols());
        for (int i = 0; i < x.rows(); ++i) {
          const int s = segments[i];
          const double inv = 1.0 / counts[s];
          for (int j = 0; j < x.cols(); ++j) {
            g(i, j) = out_node.grad(s, j) * inv;
          }
        }
        out_node.parents[0]->AccumulateGrad(std::move(g));
      });
}

Variable SoftmaxCrossEntropy(const Variable& logits,
                             const std::vector<int>& labels) {
  const Matrix& z = logits.value();
  const int n = z.rows();
  GRADGCL_CHECK(static_cast<int>(labels.size()) == n && n > 0);
  const Matrix probs = RowSoftmax(z);
  double loss = 0.0;
  for (int i = 0; i < n; ++i) {
    const int y = labels[i];
    GRADGCL_CHECK(y >= 0 && y < z.cols());
    loss -= std::log(std::max(probs(i, y), 1e-300));
  }
  loss /= n;
  return Variable::MakeOp(
      Matrix(1, 1, loss), {logits}, [labels, probs](Node& out) {
        if (!NeedsGrad(out.parents[0])) return;
        Matrix g = probs;
        const int n = g.rows();
        for (int i = 0; i < n; ++i) g(i, labels[i]) -= 1.0;
        g *= out.grad(0, 0) / n;
        out.parents[0]->AccumulateGrad(std::move(g));
      });
}

Variable BinaryCrossEntropyWithLogits(const Variable& logits,
                                      const Matrix& targets) {
  const Matrix& z = logits.value();
  GRADGCL_CHECK(z.rows() == targets.rows() && z.cols() == targets.cols());
  GRADGCL_CHECK(z.size() > 0);
  double loss = 0.0;
  for (int i = 0; i < z.size(); ++i) {
    const double zi = z.at_flat(i);
    const double ti = targets.at_flat(i);
    // max(z,0) - z t + log(1 + exp(-|z|)) — stable for any z.
    loss += std::max(zi, 0.0) - zi * ti + std::log1p(std::exp(-std::abs(zi)));
  }
  loss /= z.size();
  return Variable::MakeOp(
      Matrix(1, 1, loss), {logits}, [targets](Node& out) {
        if (!NeedsGrad(out.parents[0])) return;
        const Matrix& z = out.parents[0]->value;
        Matrix g(z.rows(), z.cols());
        const double scale = out.grad(0, 0) / z.size();
        for (int i = 0; i < z.size(); ++i) {
          const double s = 1.0 / (1.0 + std::exp(-z.at_flat(i)));
          g.at_flat(i) = (s - targets.at_flat(i)) * scale;
        }
        out.parents[0]->AccumulateGrad(std::move(g));
      });
}

}  // namespace gradgcl::ag
