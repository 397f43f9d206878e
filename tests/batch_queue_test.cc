// Tests for the single-queue batching ingress (src/common/batch_queue.h)
// that serve::EmbeddingEngine and retrieval::RetrievalEngine share,
// driven by a trivial executor: size-or-deadline launch (including the
// "max_wait bounds latency at low load" contract), key separation and
// FIFO order, oversized requests, exact admission, drain versus cancel
// shutdown, metric names, and a 1/2/4-worker hammer intended to run
// under TSAN (ctest -L serve on the build-tsan tree).

#include "common/batch_queue.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace gradgcl {
namespace {

using Outcome = BatchQueue::Outcome;

struct TestRequest : BatchQueue::Request {
  int id = 0;
  int result = -1;
};

// Executor that answers each request with 2 * id + 1 and records the ids
// of every batch it runs, in order.
class Recorder {
 public:
  BatchQueue::Executor Executor() {
    return [this](const std::vector<BatchQueue::Request*>& batch) {
      std::vector<int> ids;
      for (BatchQueue::Request* base : batch) {
        TestRequest* r = static_cast<TestRequest*>(base);
        r->result = 2 * r->id + 1;
        ids.push_back(r->id);
      }
      std::lock_guard<std::mutex> lock(mu_);
      batches_.push_back(std::move(ids));
    };
  }

  std::vector<std::vector<int>> batches() const {
    std::lock_guard<std::mutex> lock(mu_);
    return batches_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::vector<int>> batches_;
};

BatchQueueOptions Options(int workers, int max_batch, double max_wait_micros,
                          int max_queue = 1024) {
  BatchQueueOptions options;
  options.num_workers = workers;
  options.max_batch = max_batch;
  options.max_wait_micros = max_wait_micros;
  options.max_queue = max_queue;
  return options;
}

void WaitForDepth(const BatchQueue& queue, int units) {
  while (queue.QueueDepth() < units) std::this_thread::yield();
}

// Submits requests from one client thread each, in the given order: each
// is queued before the next client starts, so queue order is exactly
// `sizes`/`keys` order. Results land in `outcomes`/`requests`.
class OrderedClients {
 public:
  OrderedClients(BatchQueue& queue, const std::vector<int>& sizes,
                 const std::vector<int>& keys)
      : requests_(sizes.size()), outcomes_(sizes.size(), Outcome::kExecuted) {
    static const int kKeys[4] = {0, 1, 2, 3};
    int queued = 0;
    for (size_t i = 0; i < sizes.size(); ++i) {
      requests_[i].id = static_cast<int>(i);
      requests_[i].size = sizes[i];
      requests_[i].key = &kKeys[keys[i]];
      threads_.emplace_back(
          [this, &queue, i] { outcomes_[i] = queue.Submit(&requests_[i]); });
      queued += sizes[i];
      WaitForDepth(queue, queued);
    }
  }

  void Join() {
    for (std::thread& t : threads_) t.join();
  }

  const std::vector<TestRequest>& requests() const { return requests_; }
  const std::vector<Outcome>& outcomes() const { return outcomes_; }

 private:
  std::vector<TestRequest> requests_;
  std::vector<Outcome> outcomes_;
  std::vector<std::thread> threads_;
};

TEST(BatchQueueTest, LaunchesAsSoonAsMaxBatchUnitsArePending) {
  Recorder recorder;
  // The deadline is far away, so only the size trigger can launch.
  BatchQueue queue("bq_test", "items", Options(1, 4, 10e6),
                   recorder.Executor());
  const auto start = std::chrono::steady_clock::now();
  std::vector<TestRequest> requests(4);
  std::vector<std::thread> clients;
  for (int i = 0; i < 4; ++i) {
    requests[i].id = i;
    clients.emplace_back([&, i] {
      EXPECT_EQ(queue.Submit(&requests[i]), Outcome::kExecuted);
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  const std::vector<std::vector<int>> batches = recorder.batches();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].size(), 4u);
  for (const TestRequest& r : requests) EXPECT_EQ(r.result, 2 * r.id + 1);
}

// The low-load latency contract: a lone request never launches before
// max_wait and does launch at it, without waiting for a poll.
TEST(BatchQueueTest, LoneRequestLaunchesAtMaxWaitNotBefore) {
  constexpr double kMaxWaitMicros = 2000.0;
  Recorder recorder;
  BatchQueue queue("bq_test", "items", Options(1, 16, kMaxWaitMicros),
                   recorder.Executor());
  std::vector<double> latency_us;
  for (int i = 0; i < 20; ++i) {
    TestRequest request;
    request.id = i;
    const auto start = std::chrono::steady_clock::now();
    ASSERT_EQ(queue.Submit(&request), Outcome::kExecuted);
    latency_us.push_back(std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - start)
                             .count());
    EXPECT_EQ(request.result, 2 * i + 1);
  }
  for (double us : latency_us) EXPECT_GE(us, kMaxWaitMicros);
  std::sort(latency_us.begin(), latency_us.end());
  EXPECT_LT(latency_us[latency_us.size() / 2], 12000.0);
  EXPECT_EQ(recorder.batches().size(), 20u);
}

TEST(BatchQueueTest, SameKeyRunsNeverMixAndStayFifo) {
  Recorder recorder;
  BatchQueue queue("bq_test", "items", Options(0, 8, 0.0),
                   recorder.Executor());
  OrderedClients clients(queue, {1, 1, 1, 1, 1, 1, 1, 1},
                         {0, 0, 1, 1, 0, 2, 2, 2});
  while (queue.RunOneBatch()) {
  }
  clients.Join();
  const std::vector<std::vector<int>> expected = {
      {0, 1}, {2, 3}, {4}, {5, 6, 7}};
  EXPECT_EQ(recorder.batches(), expected);
  for (const TestRequest& r : clients.requests()) {
    EXPECT_EQ(r.result, 2 * r.id + 1);
  }
}

TEST(BatchQueueTest, OversizedRequestRunsAlone) {
  Recorder recorder;
  BatchQueue queue("bq_test", "items", Options(0, 4, 0.0),
                   recorder.Executor());
  OrderedClients clients(queue, {1, 6, 1, 2, 5}, {0, 0, 0, 0, 0});
  while (queue.RunOneBatch()) {
  }
  clients.Join();
  // Whole requests only: the 6- and 5-unit requests exceed max_batch and
  // run alone; nothing joins them.
  const std::vector<std::vector<int>> expected = {{0}, {1}, {2, 3}, {4}};
  EXPECT_EQ(recorder.batches(), expected);
  for (Outcome outcome : clients.outcomes()) {
    EXPECT_EQ(outcome, Outcome::kExecuted);
  }
}

TEST(BatchQueueTest, AdmissionIsExactAtCapacity) {
  Recorder recorder;
  BatchQueue queue("bq_test", "items", Options(0, 16, 0.0, /*max_queue=*/4),
                   recorder.Executor());
  // 3 + 1 units fill the bound exactly: both admitted.
  OrderedClients clients(queue, {3, 1}, {0, 0});
  EXPECT_EQ(queue.QueueDepth(), 4);
  TestRequest over;
  EXPECT_EQ(queue.Submit(&over), Outcome::kOverloaded);
  while (queue.RunOneBatch()) {
  }
  clients.Join();
  for (Outcome outcome : clients.outcomes()) {
    EXPECT_EQ(outcome, Outcome::kExecuted);
  }
  // A request larger than the whole bound is rejected even when idle.
  TestRequest too_big;
  too_big.size = 5;
  EXPECT_EQ(queue.Submit(&too_big), Outcome::kOverloaded);
  EXPECT_EQ(queue.QueueDepth(), 0);
}

// Drain versus cancel, with and without workers. The deadline is far
// away, so queued requests are still pending when Shutdown() lands.
TEST(BatchQueueTest, ShutdownDrainsOrCancelsThenRejects) {
  for (bool cancel : {false, true}) {
    for (int workers : {0, 2}) {
      Recorder recorder;
      BatchQueueOptions options = Options(workers, 64, 10e6);
      options.cancel_pending_on_shutdown = cancel;
      BatchQueue queue("bq_test", "items", options, recorder.Executor());
      OrderedClients clients(queue, {1, 2, 1}, {0, 0, 1});
      queue.Shutdown();
      clients.Join();
      const Outcome expected = cancel ? Outcome::kShutdown : Outcome::kExecuted;
      for (const TestRequest& r : clients.requests()) {
        EXPECT_EQ(clients.outcomes()[r.id], expected)
            << "cancel=" << cancel << " workers=" << workers << " id=" << r.id;
        EXPECT_EQ(r.result, cancel ? -1 : 2 * r.id + 1);
      }
      EXPECT_EQ(recorder.batches().size(), cancel ? 0u : 2u);
      EXPECT_EQ(queue.QueueDepth(), 0);
      queue.Shutdown();  // repeated: a no-op
      TestRequest late;
      EXPECT_EQ(queue.Submit(&late), Outcome::kShutdown);
      EXPECT_FALSE(queue.RunOneBatch());
    }
  }
}

TEST(BatchQueueTest, MetricsUseThePrefixAndUnit) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
  const obs::MetricsSnapshot before = registry.Snapshot();
  Recorder recorder;
  {
    BatchQueue queue("bq_metrics", "items",
                     Options(0, 16, 0.0, /*max_queue=*/3),
                     recorder.Executor());
    OrderedClients clients(queue, {2, 1}, {0, 0});
    EXPECT_EQ(registry.Snapshot().gauge("bq_metrics/queue_depth"), 3.0);
    TestRequest over;
    EXPECT_EQ(queue.Submit(&over), Outcome::kOverloaded);
    EXPECT_TRUE(queue.RunOneBatch());
    clients.Join();
  }
  const obs::MetricsSnapshot after = registry.Snapshot();
  const auto delta = [&](const char* name) {
    return after.counter(name) - before.counter(name);
  };
  EXPECT_EQ(delta("bq_metrics/requests"), 2u);
  EXPECT_EQ(delta("bq_metrics/rejected"), 1u);
  EXPECT_EQ(delta("bq_metrics/batches"), 1u);
  EXPECT_EQ(delta("bq_metrics/items"), 3u);
  EXPECT_EQ(after.gauge("bq_metrics/queue_depth"), 0.0);
  const obs::HistogramData* batch_items =
      after.histogram("bq_metrics/batch_items");
  ASSERT_NE(batch_items, nullptr);
  EXPECT_GE(batch_items->total, 1u);
  const obs::HistogramData* latency = after.histogram("bq_metrics/latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_GE(latency->total, 2u);
}

// Multi-producer hammer for TSAN: 8 clients submit mixed-size requests
// under two keys; every batch must hold one key and whole requests, and
// every result must match its own request.
TEST(BatchQueueTest, HammerEveryResultMatchesItsRequest) {
  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 200;
  constexpr int kMaxBatch = 8;
  static const int kKeys[2] = {0, 1};
  for (int workers : {1, 2, 4}) {
    std::atomic<int> bad_batches{0};
    std::atomic<int> executed_units{0};
    BatchQueue queue(
        "bq_test", "items", Options(workers, kMaxBatch, 50.0, 1 << 20),
        [&](const std::vector<BatchQueue::Request*>& batch) {
          int units = 0;
          for (BatchQueue::Request* base : batch) {
            TestRequest* r = static_cast<TestRequest*>(base);
            if (r->key != batch.front()->key) bad_batches.fetch_add(1);
            r->result = 2 * r->id + 1;
            units += r->size;
          }
          if (batch.size() > 1 && units > kMaxBatch) bad_batches.fetch_add(1);
          executed_units.fetch_add(units);
        });
    std::atomic<int> mismatched{0};
    int total_units = 0;
    for (int c = 0; c < kClients; ++c) {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        total_units += 1 + (c + i) % 3;
      }
    }
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int i = 0; i < kRequestsPerClient; ++i) {
          TestRequest request;
          request.id = c * kRequestsPerClient + i;
          request.size = 1 + (c + i) % 3;
          request.key = &kKeys[(c + i) % 2];
          if (queue.Submit(&request) != Outcome::kExecuted ||
              request.result != 2 * request.id + 1) {
            mismatched.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    queue.Shutdown();
    EXPECT_EQ(mismatched.load(), 0) << "workers=" << workers;
    EXPECT_EQ(bad_batches.load(), 0) << "workers=" << workers;
    EXPECT_EQ(executed_units.load(), total_units) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace gradgcl
