// In-process embedding inference engine: dynamic micro-batching with
// admission control and RCU model-version hot-swap.
//
// Many client threads call Embed() concurrently; the engine coalesces
// pending requests into disjoint-union batches and runs one tape-free
// forward per batch. Queueing, batching, admission, workers, shutdown
// and the serve/* request metrics are the shared single-queue ingress
// in common/batch_queue.h (DESIGN.md §8 "Serving model"), with graphs as
// the work unit: a batch launches once max_batch_graphs graphs are
// pending or the oldest request has waited max_wait_micros, requests
// are never split, and at most max_queue_graphs graphs wait at once.
// This file adds what is specific to serving:
//  * Model hot-swap: the engine serves ModelRegistry snapshots. The
//    model handle is the batch key, so a batch only coalesces requests
//    for one model. Each batch Acquire()s its model's current snapshot
//    once (RCU read) and runs entirely on that version — publishing a
//    new version mid-batch never mixes parameters, and every kOk
//    EmbedResult carries the model name + version that computed it.
//    Naming an unpublished model returns kUnknownModel without queueing.
//  * Execution: union the batch's graphs, run the forward on pooled
//    buffers, and scatter the rows back to their requests, under a
//    "serve/batch" trace span.
//  * Determinism: the forward kernels compute every embedding row
//    independently of its batch-mates (see serve/session.h), so results
//    are bit-identical whatever the coalescing, worker count,
//    GRADGCL_NUM_THREADS, or timing — batching is a throughput knob,
//    never a correctness one.
//
// Observability (obs/metrics, obs/trace): serve/requests,
// serve/rejected, serve/batches and serve/graphs counters, the
// serve/queue_depth gauge, and the serve/latency_us + serve/batch_graphs
// histograms (p50/p95/p99 via SummarizePercentiles). Serve metrics are
// always on — they are the product surface of this subsystem, unlike
// the trainer's gated hooks.

#ifndef GRADGCL_SERVE_ENGINE_H_
#define GRADGCL_SERVE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/batch_queue.h"
#include "obs/metrics.h"
#include "serve/registry.h"
#include "serve/session.h"

namespace gradgcl::serve {

// Engine configuration; defaults serve small-graph traffic sensibly.
struct ServeOptions {
  // Worker threads executing batches. 0 = no workers: callers pump
  // batches with RunOneBatch() (deterministic tests, single-threaded
  // embedding pipelines).
  int num_workers = 1;
  // A batch launches once this many graphs are pending...
  int max_batch_graphs = 16;
  // ...or once the oldest pending request has waited this long.
  double max_wait_micros = 200.0;
  // Admission bound: submissions that would queue more graphs than
  // this are rejected with kOverloaded.
  int max_queue_graphs = 1024;
  // true: pending requests complete with kShutdown when Shutdown()
  // runs; false (default): the queue is drained before workers exit.
  bool cancel_pending_on_shutdown = false;
};

enum class ServeStatus {
  kOk = 0,
  kOverloaded,    // admission control rejected the request
  kShutdown,      // engine stopped (at submit, or cancelled while queued)
  kUnknownModel,  // no model published under the requested name
};

// Stable names for logs / bench JSON.
const char* ServeStatusName(ServeStatus status);

// Outcome of one Embed() call.
struct EmbedResult {
  ServeStatus status = ServeStatus::kOk;
  // One row per submitted graph (session out_dim columns); empty
  // unless status == kOk.
  Matrix embeddings;
  // Snapshot that computed the embeddings (kOk only): the registry
  // name and the 1-based version Acquire()d by this request's batch.
  std::string model_name;
  uint64_t model_version = 0;
};

class EmbeddingEngine {
 public:
  // Single-model engine over a caller-owned session (`session` must
  // outlive the engine). Internally publishes it as version 1 of model
  // "default" in a private registry — results are tagged accordingly.
  EmbeddingEngine(const InferenceSession& session, const ServeOptions& options);

  // Multi-model engine over `registry` (must outlive the engine).
  // `default_model` names the model plain Embed(graphs) serves; it
  // must already be published.
  EmbeddingEngine(const ModelRegistry& registry,
                  const std::string& default_model,
                  const ServeOptions& options);

  ~EmbeddingEngine();

  EmbeddingEngine(const EmbeddingEngine&) = delete;
  EmbeddingEngine& operator=(const EmbeddingEngine&) = delete;

  // Embeds `graphs` (>= 1) with the default model, blocking until the
  // result is ready or the request is rejected. Safe to call from any
  // thread except the engine's own workers. Admission failures return
  // immediately.
  EmbedResult Embed(const std::vector<Graph>& graphs);

  // Same, against a named registry model; kUnknownModel when nothing
  // was published under `model`.
  EmbedResult Embed(const std::string& model,
                    const std::vector<Graph>& graphs);

  // Stops admission, drains or cancels the queue per the options, and
  // joins the workers. Idempotent; later Embed() calls get kShutdown.
  void Shutdown();

  // Pops and executes one pending batch inline on the calling thread,
  // ignoring the size/deadline launch policy. Returns false when the
  // queue is empty. The manual pump for num_workers == 0.
  bool RunOneBatch();

  // Pending graphs currently queued (diagnostics; racy by nature).
  int QueueDepth() const;

  const ServeOptions& options() const { return options_; }

 private:
  // One in-flight request, owned by the submitting Embed() frame; its
  // batch key is the model handle.
  struct Request : BatchQueue::Request {
    const std::vector<Graph>* graphs = nullptr;
    Matrix result;
    uint64_t version = 0;
  };

  EmbeddingEngine(std::unique_ptr<ModelRegistry> own_registry,
                  const ModelRegistry* registry,
                  const std::string& default_model,
                  const ServeOptions& options);

  EmbedResult EmbedOn(ModelHandle* model, const std::vector<Graph>& graphs);

  // Unions a popped batch, acquires the model snapshot, runs the
  // forward, and scatters the rows back to the requests.
  void ExecuteBatch(const std::vector<BatchQueue::Request*>& batch);

  const ServeOptions options_;
  // Non-null only for the legacy single-session constructor.
  std::unique_ptr<ModelRegistry> own_registry_;
  const ModelRegistry* registry_;  // own_registry_.get() or caller's
  ModelHandle* default_model_;
  obs::Counter unknown_model_rejected_;  // counts into serve/rejected
  // Declared last: its workers call ExecuteBatch, so it must start after
  // and stop before everything above.
  BatchQueue queue_;
};

}  // namespace gradgcl::serve

#endif  // GRADGCL_SERVE_ENGINE_H_
