// In-memory GraphBatchSource for tests: gathers planned batches from a
// resident vector, exactly what PrefetchReader does for shards
// (data_test pins that equivalence), so a test can drive the streamed
// training path without writing shards.

#ifndef GRADGCL_TESTS_VECTOR_BATCH_SOURCE_H_
#define GRADGCL_TESTS_VECTOR_BATCH_SOURCE_H_

#include <utility>
#include <vector>

#include "graph/graph.h"
#include "train/trainer.h"

namespace gradgcl {

class VectorBatchSource : public GraphBatchSource {
 public:
  explicit VectorBatchSource(std::vector<Graph> data)
      : data_(std::move(data)) {}

  int64_t num_graphs() const override {
    return static_cast<int64_t>(data_.size());
  }
  void BeginEpoch(const std::vector<std::vector<int>>& batches) override {
    plan_ = batches;
    next_ = 0;
  }
  bool NextBatch(std::vector<Graph>* graphs) override {
    if (next_ >= plan_.size()) return false;
    graphs->clear();
    for (int idx : plan_[next_]) graphs->push_back(data_[idx]);
    ++next_;
    return true;
  }

 private:
  std::vector<Graph> data_;
  std::vector<std::vector<int>> plan_;
  size_t next_ = 0;
};

}  // namespace gradgcl

#endif  // GRADGCL_TESTS_VECTOR_BATCH_SOURCE_H_
