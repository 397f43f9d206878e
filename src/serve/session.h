// Frozen-model inference session: the serving half of the encoder.
//
// An InferenceSession holds an immutable copy of a trained
// GraphEncoder's parameters (loaded from an nn/serialize snapshot or
// frozen straight out of a live encoder) and answers embedding queries
// with a tape-free forward pass: no autograd Variables, no tape nodes —
// just the raw tensor kernels the differentiable ops wrap. Because both
// paths run the *same* kernels in the same order (MatMulBias,
// SparseMatrix::Multiply, Relu, SegmentSum/Mean), the
// served embeddings are bit-identical to trainer-side
// EmbedGraphs / ForwardNodes inference (tests/serve_test.cc memcmps
// them across thread counts, SIMD modes, and pooling modes).
//
// Determinism contract (DESIGN.md §8 "Serving model"): every kernel in
// the forward computes each output row from that row's inputs alone —
// GEMM runs one accumulation chain per element, the batch operator is
// block-diagonal, and the segment readout accumulates each graph's own
// rows in ascending order. A graph's embedding therefore does not
// depend on which other graphs share its batch, which is what lets the
// micro-batcher (serve/engine.h) coalesce concurrent requests freely.
//
// Sessions are immutable after construction and safe to share across
// any number of threads. Forward intermediates are allocated on pooled
// storage (a TapeScope is opened per call), so steady-state serving
// performs no matrix-buffer heap allocations.

#ifndef GRADGCL_SERVE_SESSION_H_
#define GRADGCL_SERVE_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "graph/batch.h"
#include "nn/encoders.h"

namespace gradgcl::serve {

class InferenceSession {
 public:
  // Loads a frozen snapshot written by SaveModule(path, encoder) (or
  // SaveState of the encoder's StateCopy). Returns nullptr when the
  // file is missing/corrupt or the tensor shapes do not match `config`
  // — snapshots are treated as untrusted input.
  static std::unique_ptr<InferenceSession> Load(
      const EncoderConfig& config, const std::string& snapshot_path);

  // Freezes a copy of a live encoder's current parameters (no file
  // round-trip); e.g. straight out of a training loop.
  static std::unique_ptr<InferenceSession> FromEncoder(
      const GraphEncoder& encoder);

  // Freezes an explicit parameter list (Module registration order).
  // Returns nullptr on a shape mismatch against `config`.
  static std::unique_ptr<InferenceSession> FromState(
      const EncoderConfig& config, std::vector<Matrix> state);

  // Graph embeddings (batch.num_graphs x out_dim) through the
  // configured readout — bit-identical to
  // GraphEncoder::ForwardGraphs(batch).value().
  Matrix EmbedGraphs(const GraphBatch& batch) const;

  // Convenience: batches `graphs` and embeds them (one row per graph).
  Matrix EmbedGraphs(const std::vector<Graph>& graphs) const;

  // Node embeddings (batch.total_nodes x out_dim) — bit-identical to
  // GraphEncoder::ForwardNodes(batch).value(), the node-level models'
  // inference path (e.g. Grace::EmbedNodes).
  Matrix EmbedNodes(const GraphBatch& batch) const;

  const EncoderConfig& config() const { return config_; }

  // Scalar parameter count of the frozen state (logging / sanity).
  int64_t NumScalarParameters() const;

 private:
  InferenceSession(const EncoderConfig& config, std::vector<Matrix> state);

  // True when `state` matches the parameter shapes `config` implies.
  static bool StateMatchesConfig(const EncoderConfig& config,
                                 const std::vector<Matrix>& state);

  // The shared tape-free forward over an explicit propagation operator.
  Matrix ForwardNodesRaw(const SparseMatrix& propagate,
                         const Matrix& features) const;

  EncoderConfig config_;
  std::vector<Matrix> params_;  // frozen, Module registration order
};

}  // namespace gradgcl::serve

#endif  // GRADGCL_SERVE_SESSION_H_
