// The one model every workload runs: GraphCL(f+g) — GradGCL weight
// a = 0.5 on a GraphCL backbone — with a 2-layer GIN encoder and
// projection head at width 32, batch 64 (the paper's Table IV/VIII
// setting).

#ifndef PERFBENCH_MODEL_CONFIG_H_
#define PERFBENCH_MODEL_CONFIG_H_

#include "models/graphcl.h"

namespace perfbench {

inline constexpr int kBatchSize = 64;

inline gradgcl::GraphClConfig BenchModelConfig(int in_dim) {
  gradgcl::GraphClConfig config;
  config.encoder.kind = gradgcl::EncoderKind::kGin;
  config.encoder.in_dim = in_dim;
  config.encoder.hidden_dim = 32;
  config.encoder.out_dim = 32;
  config.encoder.num_layers = 2;
  config.proj_dim = 32;
  config.grad_gcl.weight = 0.5;
  return config;
}

// The model's initial weights are part of the system under test, not
// of its inputs: every seed starts from the same weights.
inline constexpr uint64_t kModelSeed = 2024;

// Input streams derived from the workload seed.
inline uint64_t DataSeed(uint64_t seed) { return seed * 1000003 + 1; }
inline uint64_t TrainSeed(uint64_t seed) { return seed * 1000003 + 3; }
inline uint64_t ClientSeed(uint64_t seed, int client) {
  return seed * 1000003 + 10 + static_cast<uint64_t>(client);
}

}  // namespace perfbench

#endif  // PERFBENCH_MODEL_CONFIG_H_
