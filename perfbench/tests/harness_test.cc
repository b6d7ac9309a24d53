// Unit tests for the benchmark's measurement helpers (perfbench/harness.h).
// Build and run:
//   cmake --build .bench_build/perfbench --target perfbench_harness_test
//   .bench_build/perfbench/perfbench_harness_test
// or `python3 perfbench/run.py --self-test`.

#include "harness.h"

#include <gtest/gtest.h>

#include <sstream>
#include <thread>

namespace perfbench {
namespace {

TEST(NearestRank, CarriesSampleCount) {
  const Percentile p = NearestRank({5, 1, 4, 2, 3}, 0.5);
  EXPECT_EQ(p.value, 3);
  EXPECT_EQ(p.samples, 5u);
}

TEST(NearestRank, UsesRankCeilQTimesN) {
  // N = 2: p50 is rank 1 (no interpolation), p100 the maximum.
  EXPECT_EQ(NearestRank({2, 1}, 0.5).value, 1);
  EXPECT_EQ(NearestRank({2, 1}, 1.0).value, 2);
  // N = 1000: p99 is rank 990, p99.9 rank 999.
  std::vector<double> values;
  for (int i = 1000; i >= 1; --i) values.push_back(i);
  EXPECT_EQ(NearestRank(values, 0.99).value, 990);
  EXPECT_EQ(NearestRank(values, 0.999).value, 999);
  EXPECT_EQ(NearestRank(values, 0.0).value, 1);
}

TEST(NearestRank, EmptySampleHasNoCount) {
  const Percentile p = NearestRank({}, 0.5);
  EXPECT_EQ(p.samples, 0u);
  EXPECT_EQ(p.value, 0);
}

TEST(Median, AveragesTheMiddlePair) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
}

LadderStep Step(double rate, uint64_t sent, std::vector<double> latencies) {
  LadderStep step;
  step.rate_rps = rate;
  step.sent = sent;
  step.served = latencies.size();
  step.latencies_us = std::move(latencies);
  return step;
}

TEST(Backlog, FlatLatencyIsNotGrowing) {
  EXPECT_FALSE(BacklogGrowing(std::vector<double>(400, 40.0)));
}

TEST(Backlog, RisingLatencyIsGrowing) {
  std::vector<double> rising;
  for (int i = 0; i < 400; ++i) rising.push_back(40.0 + 5.0 * i);
  EXPECT_TRUE(BacklogGrowing(rising));
}

TEST(Backlog, SmallAbsoluteRiseIsTolerated) {
  // Doubling from 20 us to 60 us stays within the 100 us slack.
  std::vector<double> mild(100, 20.0);
  mild.insert(mild.end(), 100, 60.0);
  EXPECT_FALSE(BacklogGrowing(mild));
}

TEST(Backlog, TooFewSamplesIsNotGrowing) {
  EXPECT_FALSE(BacklogGrowing({10, 1000, 100000}));
}

TEST(MaxRate, HighestStepMeetingTheRule) {
  const std::vector<LadderStep> ladder = {
      Step(10000, 4, {30, 30, 30, 30}),
      Step(20000, 4, {40, 40, 40, 40}),
      Step(40000, 4, {900, 900, 900, 900}),  // p50 over the limit
  };
  EXPECT_EQ(MaxRate(ladder), 20000);
}

TEST(MaxRate, GrowingBacklogFailsTheStep) {
  std::vector<double> rising;
  for (int i = 0; i < 400; ++i) rising.push_back(10.0 + 2.0 * i);
  const std::vector<LadderStep> ladder = {Step(10000, 400, rising)};
  EXPECT_TRUE(JudgeStep(ladder[0]).backlog);
  EXPECT_EQ(MaxRate(ladder), 0);
}

TEST(MaxRate, ShedRequestsFailTheStep) {
  // 999 of 1000 served meets the 99.9% rule; 998 does not.
  const std::vector<double> fast(999, 10);
  EXPECT_TRUE(JudgeStep(Step(1, 1000, fast)).meets);
  EXPECT_FALSE(
      JudgeStep(Step(1, 1000, {fast.begin() + 1, fast.end()})).meets);
}

TEST(MaxRate, StopsAtTheFirstFailingStep) {
  const std::vector<LadderStep> ladder = {
      Step(10000, 4, {30, 30, 30, 30}),
      Step(20000, 4, {900, 900, 900, 900}),
      Step(40000, 4, {30, 30, 30, 30}),  // a fluke above a failure
  };
  EXPECT_EQ(MaxRate(ladder), 10000);
}

TEST(Trace, DisabledRecordsNothing) {
  Trace trace(false);
  { Trace::Span span(&trace, "a"); }
  { Trace::Span span(nullptr, "b"); }
  EXPECT_TRUE(trace.events().empty());
}

TEST(Trace, NestedSpansKeepTheirParent) {
  Trace trace(true);
  {
    Trace::Span outer(&trace, "outer");
    { Trace::Span inner(&trace, "inner"); }
    { Trace::Span inner(&trace, "inner"); }
  }
  { Trace::Span next(&trace, "next"); }
  ASSERT_EQ(trace.events().size(), 4u);
  EXPECT_EQ(trace.events()[0].parent, -1);
  EXPECT_EQ(trace.events()[1].parent, 0);
  EXPECT_EQ(trace.events()[2].parent, 0);
  EXPECT_EQ(trace.events()[3].parent, -1);
  EXPECT_EQ(trace.Durations("inner").size(), 2u);
  EXPECT_LE(trace.ChildSeconds(0), trace.Durations("outer")[0]);
}

TEST(Trace, ChildSecondsCountsDirectChildrenOnly) {
  Trace trace(true);
  {
    Trace::Span outer(&trace, "outer");
    Trace::Span child(&trace, "child");
    Trace::Span grandchild(&trace, "grandchild");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_DOUBLE_EQ(trace.ChildSeconds(0), trace.Durations("child")[0]);
}

TEST(Trace, WritesChromeTraceEvents) {
  Trace trace(true);
  {
    Trace::Span outer(&trace, "io.write_s");
    Trace::Span inner(&trace, "quote\"name");
  }
  std::ostringstream os;
  trace.WriteChrome(os);
  const std::string json = os.str();
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [", 0),
            0u);
  EXPECT_NE(json.find("\"name\": \"io.write_s\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"quote\\\"name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"parent\": 0"), std::string::npos);
  EXPECT_EQ(json.substr(json.size() - 4), "\n]}\n");
}

TEST(Trace, EmptyTraceIsValidJson) {
  std::ostringstream os;
  Trace(true).WriteChrome(os);
  EXPECT_EQ(os.str(), "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n]}\n");
}

TEST(Json, NumbersRoundTripExactly) {
  EXPECT_EQ(JsonNumber(0.1), "0.1");
  EXPECT_EQ(std::stod(JsonNumber(9.5862180365)), 9.5862180365);
  EXPECT_EQ(std::stod(JsonNumber(1.0 / 3.0)), 1.0 / 3.0);
  EXPECT_EQ(JsonNumber(1.0 / 0.0), "0");
}

TEST(Json, MetricsCarryValueAndUnit) {
  Metrics metrics;
  metrics.Set("run_s", 1.5, "s");
  metrics.Set("auprc", 0.25, "ap");
  EXPECT_EQ(metrics.ToJson(),
            "{\"auprc\": {\"value\": 0.25, \"unit\": \"ap\"}, "
            "\"run_s\": {\"value\": 1.5, \"unit\": \"s\"}}");
}

}  // namespace
}  // namespace perfbench
