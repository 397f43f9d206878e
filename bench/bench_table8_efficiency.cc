// Table VIII — training-time overhead of the gradient loss, measured in
// pairs. Each row is one backbone/dataset pair of the paper's table,
// plus perfbench's model (perfbench/model_config.h) on 2048
// PROTEINS-sim graphs. A pair is one raw (a = 0) and one (f+g)
// (a = 0.5) TrainGraphSsl epoch run back to back. Every epoch trains a
// fresh model from the same init seed with the same TrainOptions::seed,
// so both variants see the same batches and augmentations, and the
// variant that runs first flips every pair, so host drift lands on
// both sides alike. Per row it reports the median raw and (f+g) epoch
// time and the median per-pair overhead t_fg / t_raw - 1 with its
// quartiles, and writes BENCH_table8.json into the current directory.
// Paper shape: the gradient loss adds ~2-6% wall-clock.
//
// GRADGCL_NUM_THREADS sets the thread pool as everywhere; the JSON
// records the count used.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "model_config.h"  // perfbench's model, seeds and batch size
#include "tensor/simd.h"

namespace {

using namespace gradgcl;
using namespace gradgcl::bench;

constexpr int kPairs = 100;       // timed pairs per row
constexpr int kWarmupPairs = 1;   // untimed, warms the matrix pool
constexpr double kGradGclWeight = 0.5;

struct Row {
  std::string backbone;
  std::string dataset;
  std::vector<Graph> data;
  int batch_size = 64;
  uint64_t train_seed = 5;
  // A fresh model at GradGCL weight a, always from the same init seed.
  std::function<std::unique_ptr<GraphSslModel>(double)> make_model;
};

Row TableRow(const char* dataset, Backbone backbone) {
  Row row;
  row.backbone = BackboneName(backbone);
  row.dataset = dataset;
  row.data = GenerateTuDataset(TuProfileByName(dataset), 51);
  const int in_dim = row.data[0].feature_dim();
  row.make_model = [backbone, in_dim](double weight) {
    return MakeGraphModel(backbone, in_dim, weight, 9, 24);
  };
  return row;
}

Row PerfbenchRow() {
  Row row;
  row.backbone = "GraphCL (perfbench model)";
  row.dataset = "PROTEINS-sim x2048";
  TuProfile profile = TuProfileByName("PROTEINS");
  profile.num_graphs = 2048;
  row.data = GenerateTuDataset(profile, perfbench::DataSeed(1));
  row.batch_size = perfbench::kBatchSize;
  row.train_seed = perfbench::TrainSeed(1);
  const int in_dim = row.data[0].feature_dim();
  row.make_model = [in_dim](double weight) -> std::unique_ptr<GraphSslModel> {
    GraphClConfig config = perfbench::BenchModelConfig(in_dim);
    config.grad_gcl.weight = weight;
    Rng init(perfbench::kModelSeed);
    return std::make_unique<GraphCl>(config, init);
  };
  return row;
}

// Wall time of one TrainGraphSsl epoch on a fresh model, in ms.
double EpochMs(const Row& row, double weight) {
  std::unique_ptr<GraphSslModel> model = row.make_model(weight);
  TrainOptions options;
  options.epochs = 1;
  options.batch_size = row.batch_size;
  options.seed = row.train_seed;
  return TrainGraphSsl(*model, row.data, options)[0].seconds * 1e3;
}

// Linear-interpolated quantile q of v (copied, then sorted).
double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

struct RowResult {
  double raw_ms = 0.0;
  double fg_ms = 0.0;
  double overhead_q1 = 0.0, overhead_median = 0.0, overhead_q3 = 0.0;
};

RowResult MeasureRow(const Row& row) {
  std::vector<double> raw, fg, overhead;
  for (int pair = 0; pair < kWarmupPairs + kPairs; ++pair) {
    // Flip the order every pair.
    double t_raw = 0.0, t_fg = 0.0;
    if (pair % 2 == 0) {
      t_raw = EpochMs(row, 0.0);
      t_fg = EpochMs(row, kGradGclWeight);
    } else {
      t_fg = EpochMs(row, kGradGclWeight);
      t_raw = EpochMs(row, 0.0);
    }
    if (pair < kWarmupPairs) continue;
    raw.push_back(t_raw);
    fg.push_back(t_fg);
    overhead.push_back(t_fg / t_raw - 1.0);
  }
  RowResult r;
  r.raw_ms = Quantile(raw, 0.5);
  r.fg_ms = Quantile(fg, 0.5);
  r.overhead_q1 = Quantile(overhead, 0.25);
  r.overhead_median = Quantile(overhead, 0.5);
  r.overhead_q3 = Quantile(overhead, 0.75);
  return r;
}

}  // namespace

int main() {
  std::vector<Row> rows;
  rows.push_back(TableRow("DD", Backbone::kInfoGraph));
  rows.push_back(TableRow("PROTEINS", Backbone::kGraphCl));
  rows.push_back(TableRow("IMDB-B", Backbone::kJoao));
  rows.push_back(TableRow("RDT-B", Backbone::kSimGrace));
  rows.push_back(PerfbenchRow());

  const char* isa = simd::IsaName(simd::ActiveIsa());
  std::printf("Table VIII: per-epoch overhead of the gradient loss, %d "
              "alternating raw/(f+g) pairs per row, %d threads, %s\n",
              kPairs, NumThreads(), isa);
  std::printf("%-28s %-20s %6s %6s %10s %10s %10s %20s\n", "backbone",
              "dataset", "graphs", "pairs", "raw ms", "(f+g) ms", "overhead",
              "overhead IQR");
  std::vector<RowResult> results;
  for (const Row& row : rows) {
    const RowResult r = MeasureRow(row);
    std::printf("%-28s %-20s %6zu %6d %10.1f %10.1f %+9.1f%% "
                "[%+6.1f%%, %+6.1f%%]\n",
                row.backbone.c_str(), row.dataset.c_str(), row.data.size(),
                kPairs, r.raw_ms, r.fg_ms, 100.0 * r.overhead_median,
                100.0 * r.overhead_q1, 100.0 * r.overhead_q3);
    std::fflush(stdout);
    results.push_back(r);
  }

  const char* path = "BENCH_table8.json";
  std::FILE* json = std::fopen(path, "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"table8\",\n"
               "  \"hardware_threads\": %u,\n  \"threads\": %d,\n"
               "  \"isa\": \"%s\",\n  \"build_type\": \"%s\",\n"
               "  \"grad_gcl_weight\": %.1f,\n"
               "  \"protocol\": %s,\n  \"rows\": [\n",
               std::thread::hardware_concurrency(), NumThreads(), isa,
               GRADGCL_BUILD_TYPE, kGradGclWeight,
               JsonString("per pair: one raw and one (f+g) TrainGraphSsl "
                          "epoch on fresh models with the same init and "
                          "train seeds, order flipped every pair; overhead "
                          "= t_fg / t_raw - 1 per pair")
                   .c_str());
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    const RowResult& r = results[i];
    std::fprintf(json,
                 "    {\"backbone\": %s, \"dataset\": %s, \"num_graphs\": %zu, "
                 "\"batch_size\": %d, \"pairs\": %d, \"raw_ms\": %.2f, "
                 "\"fg_ms\": %.2f, \"overhead_median\": %.4f, "
                 "\"overhead_q1\": %.4f, \"overhead_q3\": %.4f}%s\n",
                 JsonString(row.backbone).c_str(),
                 JsonString(row.dataset).c_str(), row.data.size(),
                 row.batch_size, kPairs, r.raw_ms, r.fg_ms,
                 r.overhead_median, r.overhead_q1, r.overhead_q3,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote %s\n", path);
  FinishObservability();
  return 0;
}
