// Measurement helpers for the perfbench program: nearest-rank percentiles
// that carry their sample count, the serving max-rate rule, in-memory trace
// spans written as Chrome trace-event JSON, a named-metric sink, and
// process memory probes. Nothing here links the crossmodal library, so the
// helpers are unit-tested on their own (perfbench/tests/harness_test.cc).

#ifndef CROSSMODAL_PERFBENCH_HARNESS_H_
#define CROSSMODAL_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// A percentile value together with the number of samples behind it.
struct Percentile {
  double value = 0.0;
  size_t samples = 0;
};

/// Nearest-rank percentile of an unsorted sample: the smallest value with at
/// least ceil(q * N) observations at or below it. An empty sample yields
/// {0, 0}; `q` is clamped to [0, 1].
Percentile NearestRank(std::vector<double> values, double q);

/// Median of a non-empty sample (mean of the two middle values when even).
double Median(std::vector<double> values);

/// One rung of an open-loop rate ladder.
struct LadderStep {
  double rate_rps = 0.0;
  uint64_t sent = 0;
  uint64_t served = 0;
  /// Per-request latency in microseconds, in send order, served requests
  /// only (a shed or failed request has no latency and counts against
  /// `served`).
  std::vector<double> latencies_us;
};

/// Thresholds of the max-rate rule: the p50 limit, the share of a step's
/// requests that must be served, and the absolute rise in latency that a
/// growing backlog must exceed.
constexpr double kP50LimitUs = 500.0;
constexpr double kMinServedShare = 0.999;
constexpr double kBacklogSlackUs = 100.0;

/// True when the step's queue grew during the step: the median latency of
/// the last quarter of requests exceeds twice the median of the first
/// quarter and by more than kBacklogSlackUs. A stable queue keeps both
/// quarters alike however long the step runs.
bool BacklogGrowing(const std::vector<double>& latencies_in_send_order);

/// Verdict of one step under the max-rate rule.
struct StepVerdict {
  double p50_us = 0.0;
  double served_share = 0.0;
  bool backlog = false;
  bool meets = false;
};

/// A step meets the rule when its p50 is at most kP50LimitUs, its backlog
/// is not growing, and at least kMinServedShare of its requests were
/// served.
StepVerdict JudgeStep(const LadderStep& step);

/// Highest rate of a ladder (ascending rates) at which the step and every
/// lower step meet the rule; 0 when the lowest step already fails.
double MaxRate(const std::vector<LadderStep>& ladder);

/// In-memory span recorder. Spans nest by scope on one thread; each keeps
/// its parent so self time and the causing span can be recovered. A
/// disabled trace records nothing and costs one branch per span.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// RAII span: records [construction, destruction) under `name`.
  class Span {
   public:
    Span(Trace* trace, std::string name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Index of this span in events(), -1 when the trace is disabled.
    int index() const { return index_; }

   private:
    Trace* trace_;
    int index_ = -1;
  };

  struct Event {
    std::string name;
    int parent = -1;  ///< Index of the enclosing span, -1 at top level.
    double start_us = 0.0;
    double dur_us = 0.0;
  };

  bool enabled() const { return enabled_; }
  const std::vector<Event>& events() const { return events_; }

  /// Durations in seconds of every span called `name`, in record order.
  std::vector<double> Durations(const std::string& name) const;

  /// Seconds covered by the direct children of span `parent` (-1: the
  /// top-level spans); deeper descendants are not re-counted.
  double ChildSeconds(int parent) const;

  /// Writes {"traceEvents": [...]} with one complete ("ph": "X") event per
  /// span; timestamps in microseconds from the trace's creation. Opens in
  /// Perfetto (ui.perfetto.dev) or chrome://tracing.
  void WriteChrome(std::ostream& os) const;

 private:
  using Clock = std::chrono::steady_clock;
  double NowUs() const;

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Event> events_;
  int open_ = -1;  // innermost open span
};

/// Ordered name -> (value, unit) sink printed as the result's "metrics".
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  /// {"name": {"value": v, "unit": "u"}, ...} with full double precision.
  std::string ToJson() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// JSON string literal for `raw` (quotes, backslashes and control
/// characters escaped).
std::string JsonString(const std::string& raw);

/// Shortest decimal text that reads back as exactly `value`; non-finite
/// values become 0 so the output stays valid JSON.
std::string JsonNumber(double value);

/// Peak resident set size of this process (VmHWM) in MiB, 0 if unknown.
double PeakRssMb();

/// Current resident set size (VmRSS) in MiB, 0 if unknown.
double CurrentRssMb();

/// Seconds elapsed since `start` on the steady clock.
inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace perfbench

#endif  // CROSSMODAL_PERFBENCH_HARNESS_H_
