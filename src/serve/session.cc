#include "serve/session.h"

#include <utility>

#include "nn/serialize.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "tensor/pool.h"

namespace gradgcl::serve {

namespace {

// Appends the parameter shapes of one layer stack to `shapes` as
// (rows, cols) pairs, mirroring the registration order of
// GraphEncoder's constructor: GcnConv -> Linear{W, b}; GinConv ->
// Mlp{Linear(in, out), Linear(out, out)} -> {W1, b1, W2, b2}.
std::vector<std::pair<int, int>> ExpectedShapes(const EncoderConfig& config) {
  std::vector<std::pair<int, int>> shapes;
  for (int l = 0; l < config.num_layers; ++l) {
    const int in = l == 0 ? config.in_dim : config.hidden_dim;
    const int out =
        l == config.num_layers - 1 ? config.out_dim : config.hidden_dim;
    if (config.kind == EncoderKind::kGcn) {
      shapes.emplace_back(in, out);  // W
      shapes.emplace_back(1, out);   // b
    } else {
      shapes.emplace_back(in, out);   // W1
      shapes.emplace_back(1, out);    // b1
      shapes.emplace_back(out, out);  // W2
      shapes.emplace_back(1, out);    // b2
    }
  }
  return shapes;
}

}  // namespace

bool InferenceSession::StateMatchesConfig(const EncoderConfig& config,
                                          const std::vector<Matrix>& state) {
  if (config.num_layers < 1 || config.in_dim <= 0 || config.hidden_dim <= 0 ||
      config.out_dim <= 0) {
    return false;
  }
  const std::vector<std::pair<int, int>> shapes = ExpectedShapes(config);
  if (state.size() != shapes.size()) return false;
  for (size_t i = 0; i < shapes.size(); ++i) {
    if (state[i].rows() != shapes[i].first ||
        state[i].cols() != shapes[i].second) {
      return false;
    }
  }
  return true;
}

InferenceSession::InferenceSession(const EncoderConfig& config,
                                   std::vector<Matrix> state)
    : config_(config), params_(std::move(state)) {}

std::unique_ptr<InferenceSession> InferenceSession::Load(
    const EncoderConfig& config, const std::string& snapshot_path) {
  std::vector<Matrix> state;
  if (!LoadStateFile(snapshot_path, &state)) return nullptr;
  return FromState(config, std::move(state));
}

std::unique_ptr<InferenceSession> InferenceSession::FromEncoder(
    const GraphEncoder& encoder) {
  std::unique_ptr<InferenceSession> session =
      FromState(encoder.config(), encoder.StateCopy());
  GRADGCL_CHECK_MSG(session != nullptr,
                    "live encoder state must match its own config");
  return session;
}

std::unique_ptr<InferenceSession> InferenceSession::FromState(
    const EncoderConfig& config, std::vector<Matrix> state) {
  if (!StateMatchesConfig(config, state)) return nullptr;
  return std::unique_ptr<InferenceSession>(
      new InferenceSession(config, std::move(state)));
}

int64_t InferenceSession::NumScalarParameters() const {
  int64_t n = 0;
  for (const Matrix& m : params_) n += m.size();
  return n;
}

Matrix InferenceSession::ForwardNodesRaw(const SparseMatrix& propagate,
                                         const Matrix& features) const {
  GRADGCL_CHECK_MSG(features.cols() == config_.in_dim,
                    "serve: encoder input width mismatch");
  obs::TraceScope span("serve/forward");
  // Mirrors GraphEncoder::ForwardNodesWithOperator layer by layer with
  // the raw kernels the autograd ops wrap — same kernels, same order,
  // same bits (no ReLU after the final layer there either).
  Matrix h;
  const Matrix* cur = &features;
  size_t p = 0;
  for (int l = 0; l < config_.num_layers; ++l) {
    const bool last = l == config_.num_layers - 1;
    if (config_.kind == EncoderKind::kGcn) {
      // GcnConv: σ(Â (x W + b)).
      h = propagate.Multiply(MatMulBias(*cur, params_[p], params_[p + 1]));
      p += 2;
    } else {
      // GinConv: σ(MLP((A + I) x)) with MLP = Linear, ReLU, Linear.
      const Matrix agg = propagate.Multiply(*cur);
      h = Relu(MatMulBias(agg, params_[p], params_[p + 1]));
      h = MatMulBias(h, params_[p + 2], params_[p + 3]);
      p += 4;
    }
    if (!last) h = Relu(h);
    cur = &h;
  }
  return h;
}

Matrix InferenceSession::EmbedNodes(const GraphBatch& batch) const {
  // Tape scope: intermediates recycle through the matrix pool, so a
  // steady-state forward allocates no matrix buffers from the heap.
  TapeScope tape;
  const SparseMatrix& propagate =
      config_.kind == EncoderKind::kGcn ? batch.norm_adj : batch.adj_self;
  return ForwardNodesRaw(propagate, batch.features);
}

Matrix InferenceSession::EmbedGraphs(const GraphBatch& batch) const {
  TapeScope tape;
  const SparseMatrix& propagate =
      config_.kind == EncoderKind::kGcn ? batch.norm_adj : batch.adj_self;
  const Matrix nodes = ForwardNodesRaw(propagate, batch.features);
  switch (config_.readout) {
    case ReadoutKind::kMean:
      return SegmentMean(nodes, batch.segments, batch.num_graphs);
    case ReadoutKind::kSum:
      return SegmentSum(nodes, batch.segments, batch.num_graphs);
  }
  GRADGCL_CHECK_MSG(false, "unknown readout kind");
  return Matrix();
}

Matrix InferenceSession::EmbedGraphs(const std::vector<Graph>& graphs) const {
  return EmbedGraphs(MakeBatch(graphs));
}

}  // namespace gradgcl::serve
