// RetrievalEngine: batched nearest-neighbor serving over a retrieval
// index, on the same single-queue ingress as serve::EmbeddingEngine
// (common/batch_queue.h, DESIGN.md §8) with query rows as the work
// unit: size-or-deadline batch launch, whole-request batches, the
// admission bound, per-request completion, and drain-or-cancel
// Shutdown(). This file adds only what is specific to retrieval: flat
// or IVF dispatch, the probe width, and the batch executor.
//
// A batch is the disjoint union of whole requests; execution fans the
// union's queries out over the worker's ParallelFor (each query's scan
// is serial), so results are bit-identical whatever the coalescing,
// worker count, or timing — batching is a throughput knob, never a
// correctness one (same contract as serve).
//
// Knob: GRADGCL_RETRIEVAL_NPROBE overrides the IVF probe width when
// RetrievalOptions::nprobe == 0.
//
// Observability: retrieval/requests, retrieval/rejected,
// retrieval/batches and retrieval/queries counters, the
// retrieval/queue_depth gauge, and the retrieval/latency_us +
// retrieval/batch_queries histograms; each batch runs under a
// "retrieval/batch" trace span.

#ifndef GRADGCL_RETRIEVAL_ENGINE_H_
#define GRADGCL_RETRIEVAL_ENGINE_H_

#include <vector>

#include "common/batch_queue.h"
#include "retrieval/flat_index.h"
#include "retrieval/ivf_index.h"

namespace gradgcl::retrieval {

struct RetrievalOptions {
  // Worker threads executing batches. 0 = callers pump with
  // RunOneBatch() (deterministic tests).
  int num_workers = 1;
  // A batch launches once this many queries are pending...
  int max_batch_queries = 64;
  // ...or once the oldest pending request has waited this long.
  double max_wait_micros = 200.0;
  // Admission bound on queued query rows.
  int max_queue_queries = 4096;
  // IVF probe width. 0 = GRADGCL_RETRIEVAL_NPROBE when set, else the
  // index's own default. Ignored for flat indexes.
  int nprobe = 0;
  // true: pending requests complete with kShutdown at Shutdown();
  // false (default): the queue is drained first.
  bool cancel_pending_on_shutdown = false;
};

enum class RetrievalStatus {
  kOk = 0,
  kOverloaded,  // admission control rejected the request
  kShutdown,    // engine stopped (at submit, or cancelled while queued)
};

// Stable names for logs / bench JSON.
const char* RetrievalStatusName(RetrievalStatus status);

// Outcome of one Search() call.
struct RetrievalResult {
  RetrievalStatus status = RetrievalStatus::kOk;
  // One top-k list per query row; empty unless status == kOk.
  std::vector<std::vector<Neighbor>> neighbors;
};

class RetrievalEngine {
 public:
  // Serves `index` (caller-owned; must outlive the engine).
  RetrievalEngine(const IvfIndex& index, const RetrievalOptions& options);
  RetrievalEngine(const FlatIndex& index, const RetrievalOptions& options);

  ~RetrievalEngine();

  RetrievalEngine(const RetrievalEngine&) = delete;
  RetrievalEngine& operator=(const RetrievalEngine&) = delete;

  // Top-k search for every row of `queries` (>= 1 row, dim() columns),
  // blocking until the result is ready or the request is rejected.
  // Safe from any thread except the engine's own workers.
  RetrievalResult Search(const Matrix& queries, int k);

  // Stops admission, drains or cancels the queue per the options, and
  // joins the workers. Idempotent.
  void Shutdown();

  // Pops and executes one pending batch inline. False when the queue is
  // empty. The manual pump for num_workers == 0.
  bool RunOneBatch();

  // Pending query rows (diagnostics; racy by nature).
  int QueueDepth() const;

  const RetrievalOptions& options() const { return options_; }
  int dim() const;
  // Probe width resolved at construction (IVF only; 0 for flat).
  int resolved_nprobe() const { return nprobe_; }

 private:
  // One in-flight request, owned by the submitting Search() frame.
  struct Request : BatchQueue::Request {
    const Matrix* queries = nullptr;
    int k = 0;
    std::vector<std::vector<Neighbor>> result;
  };

  RetrievalEngine(const FlatIndex* flat, const IvfIndex* ivf,
                  const RetrievalOptions& options);

  void ExecuteBatch(const std::vector<BatchQueue::Request*>& batch);

  const RetrievalOptions options_;
  const FlatIndex* flat_;  // exactly one of flat_ / ivf_ is non-null
  const IvfIndex* ivf_;
  const int nprobe_;
  // Declared last: its workers call ExecuteBatch, so it must start after
  // and stop before everything above.
  BatchQueue queue_;
};

}  // namespace gradgcl::retrieval

#endif  // GRADGCL_RETRIEVAL_ENGINE_H_
