// Single-queue batching ingress shared by the request-plane engines
// (serve::EmbeddingEngine and retrieval::RetrievalEngine; DESIGN.md §8).
//
// Client threads Submit() requests and block; the queue coalesces
// pending requests into batches and hands each batch to the engine's
// executor, on `num_workers` worker threads or on whichever thread calls
// RunOneBatch(). An engine supplies only a batch key per request and the
// executor; everything else lives here:
//  * One mutex, one condition variable, one FIFO deque. A submission
//    that gives a sleeping worker something new to do (the first request
//    in an empty queue, or a batch that is now due) wakes one worker, and
//    a worker that pops a batch while work remains wakes another.
//  * Size-or-deadline launch: a batch launches once max_batch units are
//    pending or the front request has waited max_wait_micros (0 = as
//    soon as a worker is free). An idle worker sleeps until the front
//    request's deadline; nothing polls.
//  * Whole requests only: a batch is the FIFO run of same-key requests
//    at the front of the queue, at most max_batch units, except that a
//    request larger than max_batch runs alone. Keys never mix.
//  * Admission: at most max_queue units wait at once. A request that
//    would exceed the bound gets kOverloaded; any request after
//    Shutdown() gets kShutdown.
//  * Shutdown() stops admission, then drains the queue (default) or
//    completes every pending request with kShutdown
//    (cancel_pending_on_shutdown), and joins the workers. It is
//    idempotent, and the destructor calls it.
//  * Completion is signaled per request (each Request owns a mutex and
//    condvar) once the executor returns, so a finished batch wakes
//    exactly its owners.
//
// There is one queue, not several sharded ones: on a 4-core host no
// combination of workers, shard count, clients and deadline let a
// sharded ingress beat the best single-queue setting (DESIGN.md §8).
//
// Metrics, named from the engine's prefix and work unit (for example
// serve + graphs, retrieval + queries): the <prefix>/requests,
// <prefix>/rejected, <prefix>/batches and <prefix>/<unit> counters, the
// <prefix>/queue_depth gauge (queued units), and the
// <prefix>/latency_us and <prefix>/batch_<unit> histograms.

#ifndef GRADGCL_COMMON_BATCH_QUEUE_H_
#define GRADGCL_COMMON_BATCH_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace gradgcl {

struct BatchQueueOptions {
  // Worker threads executing batches. 0 = no workers: callers pump with
  // RunOneBatch().
  int num_workers = 1;
  // A batch launches once this many units are pending...
  int max_batch = 16;
  // ...or once the front request has waited this long.
  double max_wait_micros = 200.0;
  // Admission bound on queued units.
  int max_queue = 1024;
  // true: Shutdown() completes pending requests with kShutdown;
  // false: it drains them first.
  bool cancel_pending_on_shutdown = false;
};

class BatchQueue {
 public:
  using Clock = std::chrono::steady_clock;

  enum class Outcome {
    kExecuted,    // the executor ran this request
    kOverloaded,  // rejected by the admission bound
    kShutdown,    // rejected after Shutdown(), or cancelled while queued
  };

  // One in-flight request, owned by the submitting frame. Engines derive
  // from it to add their payload and result slots.
  struct Request {
    int size = 1;               // work units, >= 1
    const void* key = nullptr;  // a batch only holds requests of one key

   private:
    friend class BatchQueue;
    Clock::time_point arrival;
    Outcome outcome = Outcome::kExecuted;
    std::mutex done_mu;
    std::condition_variable done_cv;
    bool done = false;
  };

  // Runs one batch: one or more same-key requests in arrival order. It
  // is called without the queue lock, on a worker or a RunOneBatch()
  // caller, and fills each request's result slots; the queue signals
  // the owners after it returns.
  using Executor = std::function<void(const std::vector<Request*>& batch)>;

  BatchQueue(const std::string& prefix, const std::string& unit,
             const BatchQueueOptions& options, Executor execute);
  ~BatchQueue();

  BatchQueue(const BatchQueue&) = delete;
  BatchQueue& operator=(const BatchQueue&) = delete;

  // Queues `request` and blocks until it has been executed or cancelled.
  // Admission failures return at once. Safe from any thread except the
  // queue's own workers.
  Outcome Submit(Request* request);

  // Stops admission, drains or cancels the queue, and joins the workers.
  void Shutdown();

  // Pops one batch, ignoring the size/deadline policy, and executes it
  // on the calling thread. Returns false when the queue is empty. The
  // manual pump for num_workers == 0.
  bool RunOneBatch();

  // Units currently queued (diagnostics; racy by nature).
  int QueueDepth() const;

 private:
  // True when the front batch should launch now.
  bool DueLocked(Clock::time_point now) const;
  std::vector<Request*> PopBatchLocked();
  // Executes a popped batch, records its metrics and signals its owners.
  void Run(const std::vector<Request*>& batch);
  void WorkerLoop();
  static void Complete(Request* request, Outcome outcome);

  const BatchQueueOptions options_;
  const Clock::duration max_wait_;
  const Executor execute_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<Request*> queue_;  // guarded by mu_
  int queued_units_ = 0;        // guarded by mu_
  bool stopping_ = false;       // guarded by mu_

  obs::Counter requests_;
  obs::Counter rejected_;
  obs::Counter batches_;
  obs::Counter units_;
  obs::Gauge depth_;
  obs::Histogram latency_us_;
  obs::Histogram batch_units_;

  // Declared last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace gradgcl

#endif  // GRADGCL_COMMON_BATCH_QUEUE_H_
