// Bench-side decorators around the library's public training
// interfaces: GraphSslModel (step boundaries, BatchLoss time, per-batch
// loss), GraphBatchSource (time a step waits for its next batch) and
// CommBackend (transport time, calls and bytes). They forward every
// call unchanged, so a decorated run computes exactly the bits of an
// undecorated one; with tracing off they only stamp the step boundary
// and read the loss the forward pass already computed.
//
// One StepLog belongs to one training thread (a rank): the trainer
// calls BatchLoss, NextBatch, the transport and PostStep from that
// thread only, so the log needs no synchronisation.

#ifndef PERFBENCH_DECORATORS_H_
#define PERFBENCH_DECORATORS_H_

#include <memory>
#include <vector>

#include "common.h"
#include "distributed/comm.h"
#include "train/trainer.h"

namespace perfbench {

// What one optimizer step of one rank did. Times are steady-clock ns.
struct StepRecord {
  int64_t end_ns = 0;         // PostStep returned
  int64_t graphs = 0;         // graphs the step trained on
  int64_t batch_loss_ns = 0;  // inside BatchLoss (traced only)
  int64_t data_wait_ns = 0;   // inside NextBatch (traced only)
  int64_t comm_ns = 0;        // inside transport calls (traced only)
  int64_t comm_bytes = 0;     // bytes this rank sent (traced only)
  int64_t comm_calls = 0;     // transport calls (traced only)
  int64_t first_comm_ns = 0;  // start of the step's first transport call
};

class StepLog {
 public:
  StepLog(bool traced, size_t expected_steps) : traced_(traced) {
    steps_.reserve(expected_steps);
  }

  bool traced() const { return traced_; }
  StepRecord& current() { return current_; }
  void EndStep() {
    current_.end_ns = NowNs();
    steps_.push_back(current_);
    current_ = StepRecord();
  }
  const std::vector<StepRecord>& steps() const { return steps_; }
  // Loss of every BatchLoss call (micro-batch), in call order.
  std::vector<double>& batch_losses() { return batch_losses_; }

 private:
  bool traced_;
  StepRecord current_;
  std::vector<StepRecord> steps_;
  std::vector<double> batch_losses_;
};

// GraphSslModel decorator. Registers the wrapped model's parameters as
// its own, so an optimizer over parameters() updates the wrapped model.
class TimedModel final : public gradgcl::GraphSslModel {
 public:
  TimedModel(std::unique_ptr<gradgcl::GraphSslModel> inner, StepLog* log)
      : inner_(std::move(inner)), log_(log) {
    RegisterChild(*inner_);
  }

  gradgcl::Variable BatchLoss(const std::vector<gradgcl::Graph>& dataset,
                              const std::vector<int>& indices,
                              gradgcl::Rng& rng) override {
    const int64_t t0 = log_->traced() ? NowNs() : 0;
    gradgcl::Variable loss = inner_->BatchLoss(dataset, indices, rng);
    if (log_->traced()) log_->current().batch_loss_ns += NowNs() - t0;
    log_->batch_losses().push_back(loss.scalar());
    return loss;
  }

  gradgcl::Matrix EmbedGraphs(
      const std::vector<gradgcl::Graph>& dataset) override {
    return inner_->EmbedGraphs(dataset);
  }

  void PostStep() override {
    inner_->PostStep();
    log_->EndStep();
  }

 private:
  std::unique_ptr<gradgcl::GraphSslModel> inner_;
  StepLog* log_;
};

// GraphBatchSource decorator: counts graphs delivered and, traced, the
// time the trainer blocks on the next batch.
class TimedSource final : public gradgcl::GraphBatchSource {
 public:
  TimedSource(gradgcl::GraphBatchSource& inner, StepLog* log)
      : inner_(inner), log_(log) {}

  int64_t num_graphs() const override { return inner_.num_graphs(); }
  void BeginEpoch(const std::vector<std::vector<int>>& batches) override {
    inner_.BeginEpoch(batches);
  }
  bool NextBatch(std::vector<gradgcl::Graph>* graphs) override {
    const int64_t t0 = log_->traced() ? NowNs() : 0;
    const bool ok = inner_.NextBatch(graphs);
    if (log_->traced()) log_->current().data_wait_ns += NowNs() - t0;
    if (ok) log_->current().graphs += static_cast<int64_t>(graphs->size());
    return ok;
  }

 private:
  gradgcl::GraphBatchSource& inner_;
  StepLog* log_;
};

// CommBackend decorator. The ring collectives are implemented once in
// the base class on top of the virtual transport, so wrapping the
// transport observes every byte an all-reduce moves.
class TimedComm final : public gradgcl::dist::CommBackend {
 public:
  TimedComm(std::unique_ptr<gradgcl::dist::CommBackend> inner, StepLog* log,
            int64_t timeout_millis)
      : inner_(std::move(inner)), log_(log) {
    // The trainer sets the deadline on the endpoint it is handed (this
    // decorator); the wrapped transport enforces it.
    inner_->set_timeout_millis(timeout_millis);
  }

  int rank() const override { return inner_->rank(); }
  int world_size() const override { return inner_->world_size(); }
  const char* name() const override { return inner_->name(); }

  gradgcl::dist::CommStatus SendNext(const void* bytes, int64_t n) override {
    return Timed(n, [&] { return inner_->SendNext(bytes, n); });
  }
  gradgcl::dist::CommStatus RecvPrev(void* bytes, int64_t n) override {
    return Timed(0, [&] { return inner_->RecvPrev(bytes, n); });
  }
  gradgcl::dist::CommStatus SendRecv(const void* send, int64_t send_n,
                                     void* recv, int64_t recv_n) override {
    return Timed(send_n,
                 [&] { return inner_->SendRecv(send, send_n, recv, recv_n); });
  }
  void Abort() override { inner_->Abort(); }

 private:
  template <typename Fn>
  gradgcl::dist::CommStatus Timed(int64_t sent, Fn fn) {
    if (!log_->traced()) return fn();
    StepRecord& step = log_->current();
    const int64_t t0 = NowNs();
    if (step.first_comm_ns == 0) step.first_comm_ns = t0;
    const gradgcl::dist::CommStatus status = fn();
    step.comm_ns += NowNs() - t0;
    step.comm_bytes += sent;
    ++step.comm_calls;
    return status;
  }

  std::unique_ptr<gradgcl::dist::CommBackend> inner_;
  StepLog* log_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DECORATORS_H_
