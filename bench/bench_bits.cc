// Bit fingerprint of one training run, for "same bits" claims.
//
//     ./bench/bench_bits [seed]            (default seed 1)
//     ./bench/bench_bits --check <file>    (seeds 1 and 7 vs <file>)
//
// Trains the perfbench model (perfbench/model_config.h: GraphCL(f+g),
// a = 0.5, 2-layer GIN-32 with a 32-wide projection head, batch 64) for
// 3 epochs on 2048 PROTEINS-sim graphs, with perfbench's seeds (fixed
// model weights; data and batch streams from `seed`). It prints the
// active kernel table, the glibc version, and FNV-1a hashes of the raw
// bytes of:
//   * losses — every optimizer step's loss;
//   * grads  — every parameter gradient at every step, as the optimizer
//              read it;
//   * params — the final parameters;
//   * embed  — EmbedGraphs over the whole dataset after training.
// The hashes hold at any GRADGCL_NUM_THREADS but depend on the kernel
// table (GRADGCL_SIMD=0 selects the scalar one) and on libm.
//
// --check compares seeds 1 and 7 against the fingerprints recorded in
// <file> (bench/bits_hashes.txt) for this host's (table, glibc) key,
// prints each run as a record line, and exits 0 when all match, 1 on
// any difference, and 77 — ctest's skip code — when the file records
// nothing for the key. The `bits` ctest label runs it with the default
// kernel table and with GRADGCL_SIMD=0.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

#include "datasets/tu_synthetic.h"
#include "model_config.h"  // perfbench's model, seeds and batch size
#include "models/graphcl.h"
#include "tensor/simd.h"
#include "train/trainer.h"

namespace {

using gradgcl::Graph;
using gradgcl::Matrix;
using gradgcl::Variable;

constexpr int kSkipped = 77;  // ctest SKIP_RETURN_CODE

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

struct Fingerprint {
  int64_t steps = 0;
  uint64_t losses = 0, grads = 0, params = 0, embed = 0;
};

Fingerprint TrainAndHash(uint64_t seed) {
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
  return {model.steps, model.losses.value(), model.grads.value(),
          params.value(), embed.value()};
}

const char* Table() {
  return gradgcl::simd::IsaName(gradgcl::simd::ActiveIsa());
}

const char* Glibc() {
#if defined(__GLIBC__)
  return gnu_get_libc_version();
#else
  return "none";
#endif
}

// The four hashes as one comparable string.
std::string Hashes(const Fingerprint& f) {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%016llx %016llx %016llx %016llx",
                static_cast<unsigned long long>(f.losses),
                static_cast<unsigned long long>(f.grads),
                static_cast<unsigned long long>(f.params),
                static_cast<unsigned long long>(f.embed));
  return buf;
}

// Recorded hashes for (table, glibc), by seed. Lines are
// "table glibc seed losses grads params embed"; '#' starts a comment.
bool LoadRecorded(const char* path, std::map<uint64_t, std::string>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string table, glibc, losses, grads, params, embed;
    uint64_t seed = 0;
    if (!(fields >> table) || table[0] == '#') continue;
    if (!(fields >> glibc >> seed >> losses >> grads >> params >> embed)) {
      std::fprintf(stderr, "%s: malformed line: %s\n", path, line.c_str());
      return false;
    }
    if (table == Table() && glibc == Glibc()) {
      (*out)[seed] = losses + " " + grads + " " + params + " " + embed;
    }
  }
  return true;
}

int Check(const char* path) {
  std::map<uint64_t, std::string> recorded;
  if (!LoadRecorded(path, &recorded)) {
    std::fprintf(stderr, "cannot read %s\n", path);
    return 1;
  }
  if (recorded.empty()) {
    std::printf("no fingerprints recorded for table %s, glibc %s: skipped\n",
                Table(), Glibc());
    return kSkipped;
  }
  int failures = 0;
  for (const uint64_t seed : {1, 7}) {
    const std::string actual = Hashes(TrainAndHash(seed));
    std::printf("%s %s %llu %s\n", Table(), Glibc(),
                static_cast<unsigned long long>(seed), actual.c_str());
    const auto it = recorded.find(seed);
    if (it == recorded.end()) {
      std::printf("  seed %llu: not recorded\n",
                  static_cast<unsigned long long>(seed));
      ++failures;
    } else if (it->second != actual) {
      std::printf("  seed %llu: recorded %s\n",
                  static_cast<unsigned long long>(seed), it->second.c_str());
      ++failures;
    }
  }
  std::printf("%s\n", failures == 0 ? "bits match the recorded fingerprints"
                                    : "BITS DIFFER from the recorded "
                                      "fingerprints");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--check") == 0) {
    if (argc != 3) {
      std::fprintf(stderr, "usage: %s --check <hashes file>\n", argv[0]);
      return 2;
    }
    return Check(argv[2]);
  }
  const uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1;
  const Fingerprint f = TrainAndHash(seed);
  std::printf("table  %s\n", Table());
  std::printf("glibc  %s\n", Glibc());
  std::printf("seed   %llu\n", static_cast<unsigned long long>(seed));
  std::printf("steps  %lld\n", static_cast<long long>(f.steps));
  std::printf("losses %016llx\n", static_cast<unsigned long long>(f.losses));
  std::printf("grads  %016llx\n", static_cast<unsigned long long>(f.grads));
  std::printf("params %016llx\n", static_cast<unsigned long long>(f.params));
  std::printf("embed  %016llx\n", static_cast<unsigned long long>(f.embed));
  return 0;
}
