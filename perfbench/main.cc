// perfbench: runs one workload of the repo benchmark and prints its result.
//
//   perfbench --workload <fit_ct2|curate_ct2|ingest_ct4|serve_ct2>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--git-sha <sha>]
//
// The last line of standard output is the result:
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A run whose correctness gates or accounting identities fail
// prints what failed to standard error, no result, and exits 1.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/parse_number.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Every per-layer metric the benchmark defines, with its unit. A traced
/// run reports all of them.
std::vector<std::pair<std::string, std::string>> PerLayerMetrics() {
  std::vector<std::pair<std::string, std::string>> names = {
      {"synth.generate_s", "s"},
      {"resources.requests", "count"},
      {"resources.retries", "count"},
      {"resources.retry_share", "share"},
      {"resources.degraded_share", "share"},
      {"resources.sweep_s", "s"},
      {"dataflow.feature_gen_s", "s"},
      {"dataflow.rows_per_s", "1/s"},
      {"features.rows", "count"},
      {"features.store_rss_mb", "MB"},
      {"io.write_s", "s"},
      {"io.file_mb", "MB"},
      {"io.open_s", "s"},
      {"io.materialize_s", "s"},
      {"io.read_mb_per_s", "MB/s"},
      {"io.read_row_us", "us"},
      {"mining.mine_s", "s"},
      {"mining.candidates", "count"},
      {"mining.lfs", "count"},
      {"graph.knn_build_s", "s"},
      {"graph.nodes", "count"},
      {"graph.avg_degree", "edges/node"},
      {"graph.propagate_s", "s"},
      {"graph.prop_iterations", "count"},
      {"labeling.apply_s", "s"},
      {"labeling.coverage", "share"},
      {"labeling.fit_s", "s"},
      {"labeling.em_iterations", "count"},
      {"labeling.ws_auprc", "ap"},
      {"fusion.train_s", "s"},
      {"ml.train_points", "count"},
      {"ml.points_per_s", "1/s"},
      {"core.evaluate_s", "s"},
      {"core.unattributed_s", "s"},
      {"core.span_coverage", "share"},
      {"core.trace_overhead_s", "s"},
      {"serving.direct_score_us", "us"},
      {"serving.submit_us_p50", "us"},
      {"serving.mean_batch", "count"},
      {"serving.batches", "count"},
      {"serving.queue_high_water", "count"},
      {"serving.shed", "count"},
      {"serving.fault_shed", "count"},
      {"serving.latency_p99_us", "us"},
      {"serving.latency_p999_us", "us"},
      {"serving.latency_samples", "count"},
      {"serving.gen_lag_p99_us", "us"},
      {"serving.max_rate_rps", "1/s"},
  };
  for (const double rate : kLadderRps) {
    names.emplace_back(
        "serving.latency_p50_us." + std::to_string(static_cast<int>(rate)),
        "us");
  }
  return names;
}

const std::vector<std::string> kEndToEnd = {
    "setup_s", "run_s", "peak_rss_mb", "served_share", "auprc"};

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonNumber(values[i]);
  }
  return out + "]";
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--git-sha <sha>]\n",
               message);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      auto seed = crossmodal::ParseUint64(value);
      if (!seed.ok()) return Usage("--seed must be a non-negative integer");
      options.seed = *seed;
    } else if (flag == "--seconds") {
      auto seconds = crossmodal::ParseFiniteDouble(value);
      if (!seconds.ok() || *seconds <= 0.0) {
        return Usage("--seconds must be > 0");
      }
      options.seconds = *seconds;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace must be 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }

  Outcome out(options.trace);
  if (options.workload == "fit_ct2") {
    RunFit(options, &out);
  } else if (options.workload == "curate_ct2") {
    RunCurate(options, &out);
  } else if (options.workload == "ingest_ct4") {
    RunIngest(options, &out);
  } else if (options.workload == "serve_ct2") {
    RunServe(options, &out);
  } else {
    return Usage("unknown workload");
  }
  if (!options.trace) out.metrics.Set("peak_rss_mb", PeakRssMb(), "MB");

  if (options.trace) {
    // A per-layer time the workload did not set is the median of the spans
    // of that name; a layer without spans did no work.
    for (const auto& [name, unit] : PerLayerMetrics()) {
      if (out.metrics.Has(name)) continue;
      const std::vector<double> spans = out.trace.Durations(name);
      out.metrics.Set(name, spans.empty() ? 0.0 : Median(spans), unit);
    }
  } else {
    for (const std::string& name : kEndToEnd) {
      out.Check(out.metrics.Has(name),
                "end-to-end metric " + name + " missing");
    }
  }
  out.Check(out.attempted > 0, "no operation attempted");
  if (!out.failures.empty()) {
    for (const std::string& failure : out.failures) {
      std::fprintf(stderr, "perfbench: FAILED %s\n", failure.c_str());
    }
    return 1;
  }

  const std::string tag = options.workload + "_seed" +
                          std::to_string(options.seed) + "_trace" +
                          (options.trace ? "1" : "0");
  const std::string result = "{\"correct\": true, \"attempted\": " +
                             std::to_string(out.attempted) +
                             ", \"failed\": " + std::to_string(out.failed) +
                             ", \"metrics\": " + out.metrics.ToJson() + "}";
  const std::string host =
      "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"cpu\": " + JsonString(CpuModel()) +
      ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
      ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) + "}";
  const std::string detail =
      "{\"workload\": " + JsonString(options.workload) +
      ", \"seed\": " + std::to_string(options.seed) +
      ", \"seconds\": " + JsonNumber(options.seconds) +
      ", \"trace\": " + (options.trace ? "1" : "0") +
      ", \"git_sha\": " + JsonString(git_sha) + ", \"host\": " + host +
      ", \"setup_s\": " + JsonList(out.setup_s) +
      ", \"untraced_job_s\": " + JsonList(out.untraced_s) +
      ", \"traced_job_s\": " + JsonList(out.traced_s) +
      ", \"result\": " + result + "}";
  std::ofstream(options.out_dir + "/result_" + tag + ".json") << detail << "\n";
  if (options.trace) {
    const std::string trace_path = options.out_dir + "/trace_" + tag + ".json";
    std::ofstream trace_file(trace_path);
    out.trace.WriteChrome(trace_file);
    std::printf("trace: %s\n", trace_path.c_str());
  }
  std::printf("run: %s\n", detail.c_str());
  std::printf("%s\n", result.c_str());
  return 0;
}
