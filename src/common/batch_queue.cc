#include "common/batch_queue.h"

#include <utility>

#include "common/check.h"

namespace gradgcl {

namespace {

// Histogram edges are process-wide constants: re-registering a metric
// name requires identical edges, and every queue in a process shares
// these.
const std::vector<double>& LatencyEdgesUs() {
  static const std::vector<double>* edges = new std::vector<double>{
      10.0,     20.0,     50.0,     100.0,    200.0,    500.0,
      1000.0,   2000.0,   5000.0,   10000.0,  20000.0,  50000.0,
      100000.0, 200000.0, 500000.0, 1000000.0};
  return *edges;
}

const std::vector<double>& BatchSizeEdges() {
  static const std::vector<double>* edges = new std::vector<double>{
      1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0};
  return *edges;
}

}  // namespace

BatchQueue::BatchQueue(const std::string& prefix, const std::string& unit,
                       const BatchQueueOptions& options, Executor execute)
    : options_(options),
      max_wait_(std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::micro>(options.max_wait_micros))),
      execute_(std::move(execute)) {
  GRADGCL_CHECK(options_.num_workers >= 0);
  GRADGCL_CHECK(options_.max_batch >= 1);
  GRADGCL_CHECK(options_.max_queue >= 1);
  GRADGCL_CHECK(options_.max_wait_micros >= 0.0);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Instance();
  requests_ = metrics.GetCounter(prefix + "/requests");
  rejected_ = metrics.GetCounter(prefix + "/rejected");
  batches_ = metrics.GetCounter(prefix + "/batches");
  units_ = metrics.GetCounter(prefix + "/" + unit);
  depth_ = metrics.GetGauge(prefix + "/queue_depth");
  depth_.Set(0.0);
  latency_us_ = metrics.GetHistogram(prefix + "/latency_us", LatencyEdgesUs());
  batch_units_ =
      metrics.GetHistogram(prefix + "/batch_" + unit, BatchSizeEdges());
  workers_.reserve(options_.num_workers);
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

BatchQueue::~BatchQueue() { Shutdown(); }

BatchQueue::Outcome BatchQueue::Submit(Request* request) {
  GRADGCL_CHECK(request->size >= 1);
  request->arrival = Clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || queued_units_ + request->size > options_.max_queue) {
      rejected_.Add(1);
      return stopping_ ? Outcome::kShutdown : Outcome::kOverloaded;
    }
    // Idle workers wait untimed on an empty queue, or until the front
    // request's deadline otherwise; only a first request or a batch that
    // is due now changes what they are waiting for.
    const bool wake = queue_.empty() || max_wait_.count() == 0 ||
                      queued_units_ + request->size >= options_.max_batch;
    queue_.push_back(request);
    queued_units_ += request->size;
    depth_.Set(queued_units_);
    // Notified under the lock: a submitter racing this one then queues
    // after the woken worker's first pop instead of joining its batch.
    // With two closed-loop clients that keeps one worker pipelined (one
    // request executing while the next queues) rather than batching both
    // and sleeping between batches; notifying after the unlock measured
    // 12-20% fewer requests/s there on a 4-vCPU host.
    if (wake) work_cv_.notify_one();
  }
  {
    std::unique_lock<std::mutex> lock(request->done_mu);
    request->done_cv.wait(lock, [request] { return request->done; });
  }
  latency_us_.Observe(std::chrono::duration<double, std::micro>(
                          Clock::now() - request->arrival)
                          .count());
  requests_.Add(1);
  return request->outcome;
}

bool BatchQueue::DueLocked(Clock::time_point now) const {
  if (queue_.empty()) return false;
  return stopping_ || max_wait_.count() == 0 ||
         queued_units_ >= options_.max_batch ||
         now >= queue_.front()->arrival + max_wait_;
}

std::vector<BatchQueue::Request*> BatchQueue::PopBatchLocked() {
  std::vector<Request*> batch;
  const void* const key = queue_.front()->key;
  int units = 0;
  while (!queue_.empty() && units < options_.max_batch) {
    Request* r = queue_.front();
    // A key change ends the batch (FIFO preserved); an oversized first
    // request runs alone.
    if (r->key != key) break;
    if (!batch.empty() && units + r->size > options_.max_batch) break;
    queue_.pop_front();
    batch.push_back(r);
    units += r->size;
  }
  queued_units_ -= units;
  depth_.Set(queued_units_);
  return batch;
}

void BatchQueue::Run(const std::vector<Request*>& batch) {
  int units = 0;
  for (const Request* r : batch) units += r->size;
  execute_(batch);
  batches_.Add(1);
  units_.Add(static_cast<uint64_t>(units));
  batch_units_.Observe(static_cast<double>(units));
  for (Request* r : batch) Complete(r, Outcome::kExecuted);
}

void BatchQueue::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (stopping_ && (options_.cancel_pending_on_shutdown || queue_.empty())) {
      return;  // Shutdown() cancels whatever is left
    }
    if (queue_.empty()) {
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      continue;
    }
    const Clock::time_point now = Clock::now();
    if (!DueLocked(now)) {
      work_cv_.wait_until(lock, queue_.front()->arrival + max_wait_);
      continue;
    }
    const std::vector<Request*> batch = PopBatchLocked();
    // What is left needs a worker while this one executes: to launch it
    // if it is due, or to sleep until its deadline otherwise.
    const bool more = !queue_.empty();
    lock.unlock();
    if (more) work_cv_.notify_one();
    Run(batch);
    lock.lock();
  }
}

void BatchQueue::Complete(Request* request, Outcome outcome) {
  // Notifying under the request's mutex is deliberate: the owner cannot
  // return from its wait, and destroy the request, before we release it.
  std::lock_guard<std::mutex> lock(request->done_mu);
  request->outcome = outcome;
  request->done = true;
  request->done_cv.notify_one();
}

void BatchQueue::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
  // Workers drain the queue before exiting, so in drain mode this only
  // pumps when there are none.
  if (options_.cancel_pending_on_shutdown) {
    std::deque<Request*> cancelled;
    {
      std::lock_guard<std::mutex> lock(mu_);
      cancelled.swap(queue_);
      queued_units_ = 0;
      depth_.Set(0.0);
    }
    for (Request* r : cancelled) Complete(r, Outcome::kShutdown);
  } else {
    while (RunOneBatch()) {
    }
  }
}

bool BatchQueue::RunOneBatch() {
  std::vector<Request*> batch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    batch = PopBatchLocked();
  }
  Run(batch);
  return true;
}

int BatchQueue::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_units_;
}

}  // namespace gradgcl
