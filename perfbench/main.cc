// End-to-end benchmark of the GradGCL system.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> [--scale full|smoke] [--corrupt <gate>]
//
// Workloads: train_fg_inram, pretrain_dp2_stream, embed_search_c2 (see
// README.md). Prints one metadata line, one human-readable line per
// metric, and as its last line the result JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 when a correctness gate fails, 2 on bad
// arguments, 3 when built without optimization or with a sanitizer.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "common.h"
#include "common/json.h"
#include "tensor/simd.h"

extern char** environ;

namespace perfbench {
namespace {

bool OptimizedBuild() {
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  return false;
#else
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0 &&
         PERFBENCH_SANITIZE[0] == '\0';
#endif
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

void PrintMetadata(const Options& options) {
  using gradgcl::JsonString;
  const char* describe = std::getenv("PERFBENCH_GIT_DESCRIBE");
  std::string env;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("GRADGCL_", 0) != 0) continue;
    const size_t eq = entry.find('=');
    env += (env.empty() ? "" : ", ") + JsonString(entry.substr(0, eq)) + ": " +
           JsonString(eq == std::string::npos ? "" : entry.substr(eq + 1));
  }
  std::printf(
      "{\"metadata\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"scale\": %s, \"hardware_threads\": %u, "
      "\"simd_isa\": %s, \"cpu_model\": %s, \"build_type\": %s, "
      "\"git_describe\": %s, \"env\": {%s}}}\n",
      JsonString(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0, JsonString(options.smoke ? "smoke" : "full").c_str(),
      std::thread::hardware_concurrency(),
      JsonString(gradgcl::simd::IsaName(gradgcl::simd::ActiveIsa())).c_str(),
      JsonString(CpuModel()).c_str(), JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(describe != nullptr ? describe : "unknown").c_str(),
      env.c_str());
}

// Prints the selected metrics, one per line, then the result line.
void PrintResult(const Options& options, Report* report) {
  std::string metrics;
  for (const MetricSpec& spec : Catalog()) {
    if (spec.end_to_end == options.trace) continue;
    const auto it = report->metrics.find(spec.name);
    // A per-layer metric of a layer this workload never enters reads 0
    // (no time spent there); an end-to-end metric must be measured.
    double value = it != report->metrics.end() ? it->second : 0.0;
    report->Gate(spec.end_to_end ? it != report->metrics.end() : true,
                 std::string("metric not measured: ") + spec.name);
    report->Gate(std::isfinite(value),
                 std::string("metric not finite: ") + spec.name);
    if (!std::isfinite(value)) value = 0.0;
    std::printf("%-34s %16.6f %s\n", spec.name, value, spec.unit);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    metrics += (metrics.empty() ? "" : ", ") + gradgcl::JsonString(spec.name) +
               ": {\"value\": " + buf +
               ", \"unit\": " + gradgcl::JsonString(spec.unit) + "}";
  }
  report->Gate(report->attempted >= 1, "no operation was attempted");
  for (const std::string& failure : report->gate_failures) {
    std::printf("gate failed: %s\n", failure.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              report->correct() ? "true" : "false",
              static_cast<long long>(report->attempted),
              static_cast<long long>(report->failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  if (!ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --work-dir <dir> [--scale full|smoke] "
                 "[--corrupt <gate>]\n");
    return 2;
  }
  if (!OptimizedBuild()) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a %s build (sanitizer "
                 "'%s'); configure with -DCMAKE_BUILD_TYPE=Release and no "
                 "GRADGCL_SANITIZE\n",
                 PERFBENCH_BUILD_TYPE, PERFBENCH_SANITIZE);
    return 3;
  }
  void (*run)(const Options&, Report*) =
      options.workload == "train_fg_inram"        ? RunTrainInRam
      : options.workload == "pretrain_dp2_stream" ? RunPretrainDp
      : options.workload == "embed_search_c2"     ? RunEmbedSearch
                                                  : nullptr;
  if (run == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  PrintMetadata(options);
  Report report;
  run(options, &report);
  // A workload may take its peak earlier, at a point every run repeats.
  if (report.metrics.count("peak_rss_mb") == 0) {
    report.Set("peak_rss_mb", PeakRssMb());
  }
  PrintResult(options, &report);
  return report.correct() ? 0 : 1;
}
