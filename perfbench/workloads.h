// The four perfbench workloads and what they share. Each workload drives
// the crossmodal library only through its public entry points; the inputs
// are generated from the workload seed and nothing else.

#ifndef CROSSMODAL_PERFBENCH_WORKLOADS_H_
#define CROSSMODAL_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "harness.h"
#include "resources/registry.h"
#include "synth/corpus_generator.h"

namespace perfbench {

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

/// What a run reports. `metrics` holds the end-to-end metrics of an
/// untraced run or the per-layer metrics of a traced one.
struct Outcome {
  explicit Outcome(bool traced) : trace(traced) {}

  Metrics metrics;
  /// Operations behind `served_share`: feature requests for the batch
  /// workloads, scoring requests for serving.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Correctness gates and accounting identities that did not hold. A run
  /// with any entry reports no numbers.
  std::vector<std::string> failures;
  Trace trace;
  /// Seconds of every job (or serving ladder pass) and set-up, in run
  /// order, kept in the run's detail file for reading noise.
  std::vector<double> untraced_s, traced_s, setup_s;

  /// Records a failure unless `ok`.
  void Check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// One task's generated corpus and its organizational-resource registry.
struct Task {
  crossmodal::TaskSpec spec;
  std::unique_ptr<crossmodal::CorpusGenerator> generator;
  crossmodal::Corpus corpus;
  std::unique_ptr<crossmodal::ResourceRegistry> registry;
};

/// Generates CT `ct` at `scale` from `seed`: corpus and registry. A
/// nonzero `image_test` overrides the size of the image test split. The
/// corpus generation runs under a `synth.generate_s` span.
Task MakeTask(int ct, double scale, uint64_t seed, Trace* trace,
              size_t image_test = 0);

/// The paper's default configuration (the same values as the benches'
/// DefaultConfig): all four service sets, mining plus label propagation,
/// early fusion, a 3-member MLP ensemble trained for 10 epochs, k = 15.
crossmodal::PipelineConfig PaperConfig(const Task& task, size_t threads);

/// serve_ct2's offered rates, ascending. They stay well below the knee of
/// the two-shard tier on a 4-vCPU host (a backlog grows from about 120k
/// rps).
inline constexpr double kLadderRps[] = {10000.0, 20000.0, 40000.0};

void RunFit(const Options& options, Outcome* out);
void RunCurate(const Options& options, Outcome* out);
void RunIngest(const Options& options, Outcome* out);
void RunServe(const Options& options, Outcome* out);

// ---- Shared by the workloads' implementations ---------------------------

/// Calls `setup` until at least three set-ups and `min_seconds` have
/// passed, appends each set-up's seconds to `setup_times`, and returns the
/// last result.
template <typename T, typename SetupFn>
T RepeatSetup(const SetupFn& setup, double min_seconds,
              std::vector<double>* setup_times) {
  std::unique_ptr<T> kept;
  const auto start = std::chrono::steady_clock::now();
  while (setup_times->size() < 3 || SecondsSince(start) < min_seconds) {
    kept.reset();  // one set-up alive at a time bounds peak memory
    const auto t0 = std::chrono::steady_clock::now();
    kept = std::make_unique<T>(setup());
    setup_times->push_back(SecondsSince(t0));
  }
  return std::move(*kept);
}

/// Adds the trace accounting from the median job times and the seconds
/// each traced job's layer spans cover (`attributed_s`):
/// `core.span_coverage` (attributed / untraced job time),
/// `core.unattributed_s` (traced job time no layer span covers) and
/// `core.trace_overhead_s` (traced minus untraced job time).
void FinishTracedRun(const std::vector<double>& attributed_s, Outcome* out);

}  // namespace perfbench

#endif  // CROSSMODAL_PERFBENCH_WORKLOADS_H_
