// Bit fingerprint of one training run, for "same bits" claims between
// two trees of the repo.
//
//     ./bench/bench_bits [seed]        (default seed 1)
//
// Trains the perfbench model (perfbench/model_config.h: GraphCL(f+g),
// a = 0.5, 2-layer GIN-32 with a 32-wide projection head, batch 64) for
// 3 epochs on 2048 PROTEINS-sim graphs, with perfbench's seeds (fixed
// model weights; data and batch streams from `seed`). It prints FNV-1a
// hashes of the raw bytes of:
//   * losses — every optimizer step's loss;
//   * grads  — every parameter gradient at every step, as the optimizer
//              read it;
//   * params — the final parameters;
//   * embed  — EmbedGraphs over the whole dataset after training.
// Build the same file against two trees, run both (any
// GRADGCL_NUM_THREADS, and again with GRADGCL_SIMD=0), and diff the
// output: equal lines mean equal bits.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "datasets/tu_synthetic.h"
#include "model_config.h"  // perfbench's model, seeds and batch size
#include "models/graphcl.h"
#include "train/trainer.h"

namespace {

using gradgcl::Graph;
using gradgcl::Matrix;
using gradgcl::Variable;

// 64-bit FNV-1a over a byte stream.
class Fnv1a {
 public:
  void Add(const void* data, size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Add(double v) { Add(&v, sizeof(v)); }
  void Add(const Matrix& m) {
    Add(m.data(), sizeof(double) * static_cast<size_t>(m.size()));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// GraphCl that hashes each step's loss and, once the optimizer has
// stepped, the gradients it stepped with.
class HashedGraphCl : public gradgcl::GraphCl {
 public:
  using GraphCl::GraphCl;

  Variable BatchLoss(const std::vector<Graph>& dataset,
                     const std::vector<int>& indices,
                     gradgcl::Rng& rng) override {
    Variable loss = GraphCl::BatchLoss(dataset, indices, rng);
    losses.Add(loss.scalar());
    ++steps;
    return loss;
  }

  void PostStep() override {
    GraphCl::PostStep();
    for (const Variable& p : parameters()) grads.Add(p.grad());
  }

  Fnv1a losses;
  Fnv1a grads;
  int64_t steps = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1;

  gradgcl::TuProfile profile = gradgcl::TuProfileByName("PROTEINS");
  profile.num_graphs = 2048;
  const std::vector<Graph> data =
      gradgcl::GenerateTuDataset(profile, perfbench::DataSeed(seed));

  gradgcl::Rng init(perfbench::kModelSeed);
  HashedGraphCl model(perfbench::BenchModelConfig(data[0].feature_dim()),
                      init);
  gradgcl::TrainOptions train;
  train.epochs = 3;
  train.batch_size = perfbench::kBatchSize;
  train.seed = perfbench::TrainSeed(seed);
  gradgcl::TrainGraphSsl(model, data, train);

  Fnv1a params;
  for (const Variable& p : model.parameters()) params.Add(p.value());
  Fnv1a embed;
  embed.Add(model.EmbedGraphs(data));

  std::printf("seed   %llu\n", static_cast<unsigned long long>(seed));
  std::printf("steps  %lld\n", static_cast<long long>(model.steps));
  std::printf("losses %016llx\n",
              static_cast<unsigned long long>(model.losses.value()));
  std::printf("grads  %016llx\n",
              static_cast<unsigned long long>(model.grads.value()));
  std::printf("params %016llx\n",
              static_cast<unsigned long long>(params.value()));
  std::printf("embed  %016llx\n",
              static_cast<unsigned long long>(embed.value()));
  return 0;
}
