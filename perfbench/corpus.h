// The ZINC-sim pre-training corpus both streamed workloads read: the
// MoleculeUniverse generator written graph by graph into mmap shards.

#ifndef PERFBENCH_CORPUS_H_
#define PERFBENCH_CORPUS_H_

#include <filesystem>
#include <string>

#include "common.h"
#include "common/check.h"
#include "data/shard_reader.h"
#include "data/shard_writer.h"
#include "datasets/molecule_universe.h"

namespace perfbench {

struct Corpus {
  gradgcl::data::ShardedDataset dataset;
  double generate_s = 0.0;  // generator time
  double write_s = 0.0;     // ShardWriter time, open included
};

// Generates `num_graphs` ZINC-sim graphs from `seed` into shards under
// `dir` and opens them. Aborts on I/O failure.
inline Corpus WriteCorpus(int num_graphs, uint64_t seed,
                          const std::string& dir) {
  Corpus corpus;
  std::filesystem::create_directories(
      std::filesystem::path(dir).parent_path());
  const int64_t t0 = NowNs();
  int64_t write_ns = 0;
  gradgcl::data::ShardWriterOptions writer_options;
  writer_options.feature_dim = gradgcl::kNumAtomTypes;
  gradgcl::data::ShardWriter writer(dir, writer_options);
  gradgcl::ForEachPretrainGraph(
      gradgcl::PretrainKind::kZinc, num_graphs, seed,
      [&](gradgcl::Graph&& g) {
        const int64_t w0 = NowNs();
        GRADGCL_CHECK(writer.Add(g));
        write_ns += NowNs() - w0;
      });
  const int64_t w0 = NowNs();
  GRADGCL_CHECK(writer.Finalize());
  GRADGCL_CHECK(corpus.dataset.Open(dir));
  write_ns += NowNs() - w0;
  corpus.write_s = static_cast<double>(write_ns) * 1e-9;
  corpus.generate_s =
      static_cast<double>(NowNs() - t0) * 1e-9 - corpus.write_s;
  return corpus;
}

}  // namespace perfbench

#endif  // PERFBENCH_CORPUS_H_
