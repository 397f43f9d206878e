#include "nn/layers.h"

namespace gradgcl {

Linear::Linear(int in_dim, int out_dim, Rng& rng)
    : in_dim_(in_dim), out_dim_(out_dim) {
  GRADGCL_CHECK(in_dim > 0 && out_dim > 0);
  weight_ = AddParameter(Matrix::GlorotUniform(in_dim, out_dim, rng));
  bias_ = AddParameter(Matrix::Zeros(1, out_dim));
}

Variable Linear::Forward(const Variable& x) const {
  GRADGCL_CHECK_MSG(x.cols() == in_dim_, "Linear: input width mismatch");
  return ag::Linear(x, weight_, bias_);
}

Mlp::Mlp(const std::vector<int>& dims, Rng& rng) {
  GRADGCL_CHECK_MSG(dims.size() >= 2, "Mlp needs at least in and out dims");
  layers_.reserve(dims.size() - 1);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(dims[i], dims[i + 1], rng);
  }
  for (Linear& l : layers_) RegisterChild(l);
}

Variable Mlp::Forward(const Variable& x) const {
  Variable h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].Forward(h);
    if (i + 1 < layers_.size()) h = ag::Relu(h);
  }
  return h;
}

GcnConv::GcnConv(int in_dim, int out_dim, Rng& rng)
    : lin_(in_dim, out_dim, rng) {
  RegisterChild(lin_);
}

Variable GcnConv::Forward(const SparseMatrix& propagate, const Variable& x,
                          bool apply_relu) const {
  Variable h = ag::SparseLeftMatMul(propagate, lin_.Forward(x));
  return apply_relu ? ag::Relu(h) : h;
}

GinConv::GinConv(int in_dim, int out_dim, Rng& rng)
    : mlp_({in_dim, out_dim, out_dim}, rng) {
  RegisterChild(mlp_);
}

Variable GinConv::Forward(const SparseMatrix& propagate, const Variable& x,
                          bool apply_relu) const {
  Variable h = mlp_.Forward(ag::SparseLeftMatMul(propagate, x));
  return apply_relu ? ag::Relu(h) : h;
}

GatConv::GatConv(int in_dim, int out_dim, Rng& rng, double leaky_slope)
    : leaky_slope_(leaky_slope), lin_(in_dim, out_dim, rng) {
  GRADGCL_CHECK(leaky_slope > 0.0 && leaky_slope < 1.0);
  RegisterChild(lin_);
  attn_src_ = AddParameter(Matrix::GlorotUniform(out_dim, 1, rng));
  attn_dst_ = AddParameter(Matrix::GlorotUniform(out_dim, 1, rng));
}

Variable GatConv::Forward(const Matrix& mask, const Variable& x,
                          bool apply_relu) const {
  const int n = x.rows();
  GRADGCL_CHECK(mask.rows() == n && mask.cols() == n);
  Variable z = lin_.Forward(x);  // n x out_dim
  // scores(i, j) = s_src_i + s_dst_j.
  Variable s_src = ag::MatMul(z, attn_src_);  // n x 1
  Variable s_dst = ag::MatMul(z, attn_dst_);  // n x 1
  Variable scores = ag::AddRowBroadcast(
      ag::MatMul(s_src, Variable(Matrix::Ones(1, n))), ag::Transpose(s_dst));
  Variable attention = ag::MaskedRowSoftmax(
      ag::LeakyRelu(scores, leaky_slope_), mask);
  Variable h = ag::MatMul(attention, z);
  return apply_relu ? ag::Relu(h) : h;
}

Matrix DenseAttentionMask(const Graph& g) {
  Matrix mask(g.num_nodes, g.num_nodes, 0.0);
  for (int i = 0; i < g.num_nodes; ++i) mask(i, i) = 1.0;
  for (const auto& [u, v] : g.edges) {
    mask(u, v) = 1.0;
    mask(v, u) = 1.0;
  }
  return mask;
}

}  // namespace gradgcl
