// serve_ct2: open-loop traffic into a two-shard ShardedServer. See
// README.md for the ladder, the latency definition and the noise facts.

#include <atomic>
#include <optional>
#include <thread>

#include "ml/metrics.h"
#include "serving/batch_server.h"
#include "serving/model_server.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {

using namespace crossmodal;

namespace {

/// The rate whose request latency is the workload's `run_s`.
constexpr double kReferenceRps = 20000.0;
constexpr double kStepSeconds = 0.5;
/// The served model trains on CT 2 at x0.25 and is asked about a test split
/// of 6000 images (x0.25 alone has 1000). CT 1, as first planned, trains a
/// model whose test AUPRC moved by a third to a half between seeds at x0.25
/// and x0.5; CT 2's moves by about a twentieth.
constexpr size_t kTestImages = 6000;

/// Everything one set-up builds: the task, a model trained on it by the
/// full pipeline, the tier serving it, and the test rows it is asked about.
struct ServeSetup {
  std::unique_ptr<Task> task;  // pinned: the pipeline points into it
  std::unique_ptr<CrossModalPipeline> pipeline;
  std::optional<ShardedServer> server;
  std::vector<EntityId> ids;
  std::vector<const FeatureVector*> rows;
  std::vector<int> labels;
  /// Direct ModelServer::Score of every row, the bit-exact reference.
  std::vector<double> reference;
  double direct_score_us = 0.0;
};

/// One step's raw outcome.
struct StepRun {
  LadderStep step;
  uint64_t shed = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  std::vector<double> lag_us;
  std::vector<double> submit_us;
  double seconds = 0.0;
};

using Clock = std::chrono::steady_clock;

double UsSince(Clock::time_point origin) {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin)
      .count();
}

/// Sends `picks.size()` requests at `rate` on a fixed schedule from this
/// thread while one collector thread waits for the replies in send order.
/// Each latency runs from when its request was due, so generator stalls
/// count against the requests they delay.
StepRun RunStep(ShardedServer* server, const ServeSetup& setup, double rate,
                const std::vector<size_t>& picks) {
  const size_t n = picks.size();
  StepRun run;
  run.step.rate_rps = rate;
  run.step.sent = n;
  run.lag_us.resize(n);
  run.submit_us.resize(n);
  std::vector<std::optional<Ticket>> tickets(n);
  std::vector<double> due(n);
  std::vector<double> latency(n, -1.0);
  std::atomic<size_t> published{0};
  const Clock::time_point origin = Clock::now();

  std::thread collector([&] {
    for (size_t i = 0; i < n; ++i) {
      // Sleep (not spin) while caught up with the generator, so the load
      // keeps to the generator's core and the two shard workers.
      for (size_t seen = published.load(std::memory_order_acquire); seen <= i;
           seen = published.load(std::memory_order_acquire)) {
        published.wait(seen, std::memory_order_acquire);
      }
      Result<ServedScore> reply = tickets[i]->Wait();
      const double done = UsSince(origin);
      if (reply.ok()) {
        latency[i] = done - due[i];
        if (reply->score != setup.reference[picks[i]]) ++run.mismatches;
      } else if (reply.status().code() == StatusCode::kUnavailable) {
        ++run.shed;
      } else {
        ++run.failed;
      }
    }
  });
  for (size_t i = 0; i < n; ++i) {
    due[i] = static_cast<double>(i) * 1e6 / rate;
    double now = UsSince(origin);
    while (now < due[i]) now = UsSince(origin);
    run.lag_us[i] = now - due[i];
    const size_t k = picks[i];
    tickets[i].emplace(server->Submit(setup.ids[k], *setup.rows[k]));
    run.submit_us[i] = UsSince(origin) - now;
    published.store(i + 1, std::memory_order_release);
    published.notify_one();
  }
  collector.join();
  run.seconds = UsSince(origin) * 1e-6;
  for (double us : latency) {
    if (us >= 0.0) run.step.latencies_us.push_back(us);
  }
  run.step.served = run.step.latencies_us.size();
  return run;
}

ServeSetup MakeServeSetup(uint64_t seed, Outcome* out,
                          std::vector<double>* auprcs) {
  ServeSetup s;
  s.task = std::make_unique<Task>(
      MakeTask(2, 0.25, seed, &out->trace, kTestImages));
  const Task& task = *s.task;
  s.pipeline = std::make_unique<CrossModalPipeline>(
      task.registry.get(), &task.corpus, PaperConfig(task, 1));
  Result<PipelineResult> result = s.pipeline->Run();
  if (!result.ok()) {
    out->Check(false, "serve training: " + result.status().ToString());
    return s;
  }
  const std::shared_ptr<const CrossModalModel> model(std::move(result->model));
  const FeatureSchema* schema = &task.registry->schema();
  const std::vector<FeatureId>& features =
      s.pipeline->selection().image_model_features;
  for (const Entity& e : task.corpus.image_test) {
    auto row = s.pipeline->store().Get(e.id);
    if (!row.ok()) continue;
    s.ids.push_back(e.id);
    s.rows.push_back(*row);
    s.labels.push_back(e.label == 1 ? 1 : 0);
  }
  auto direct = ModelServer::Create(model, schema, features);
  if (!direct.ok()) {
    out->Check(false, "direct server: " + direct.status().ToString());
    return s;
  }
  for (const FeatureVector* row : s.rows) {
    s.reference.push_back(direct->Score(*row));
  }
  // ScoreBatch per row, outside the tier: the tier's floor.
  std::vector<double> per_row_us;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    const std::vector<double> scores = direct->ScoreBatch(s.rows);
    per_row_us.push_back(SecondsSince(t0) * 1e6 /
                         static_cast<double>(scores.size()));
  }
  s.direct_score_us = Median(per_row_us);

  ShardedServingOptions options;
  options.num_shards = 2;
  // Deep enough that a host stall of tens of milliseconds at the top rate
  // queues requests rather than shedding them.
  options.queue_capacity = 8192;
  options.route_seed = DeriveSeed(seed, "route");
  auto server = ShardedServer::Create(model, schema, features, options);
  if (!server.ok()) {
    out->Check(false, "sharded server: " + server.status().ToString());
    return s;
  }
  s.server.emplace(std::move(*server));

  // Untimed gate: every test row scored through the tier matches direct
  // scoring bit for bit; the AP of those served scores is the quality
  // metric. Chunks stay within the tier's queues, so nothing is shed.
  std::vector<double> scores;
  constexpr size_t kChunk = 256;
  for (size_t begin = 0; begin < s.rows.size(); begin += kChunk) {
    const size_t end = std::min(s.rows.size(), begin + kChunk);
    const auto served = s.server->ScoreAll(
        std::vector<EntityId>(s.ids.begin() + begin, s.ids.begin() + end),
        std::vector<const FeatureVector*>(s.rows.begin() + begin,
                                          s.rows.begin() + end));
    for (size_t i = 0; i < served.size(); ++i) {
      const bool same =
          served[i].ok() && served[i]->score == s.reference[begin + i];
      out->Check(same, "served score differs from direct ModelServer::Score");
      if (!same) return s;
      scores.push_back(served[i]->score);
    }
  }
  auprcs->push_back(AveragePrecision(scores, s.labels));
  return s;
}

}  // namespace

void RunServe(const Options& options, Outcome* out) {
  std::vector<double> auprcs;
  ServeSetup setup = RepeatSetup<ServeSetup>(
      [&] { return MakeServeSetup(options.seed, out, &auprcs); }, 1.0,
      &out->setup_s);
  if (!out->failures.empty()) return;
  out->Check(std::equal(auprcs.begin() + 1, auprcs.end(), auprcs.begin()),
             "served auprc differs between set-ups of one seed");
  ShardedServer* server = &*setup.server;
  const ShardedStats before = server->stats();

  // A fixed number of ladder passes, so one seed always sends the same
  // requests; traced runs order them untraced, traced, traced, untraced.
  const double pass_s = kStepSeconds * std::size(kLadderRps);
  const int passes = std::max(options.trace ? 4 : 1,
                              static_cast<int>(options.seconds / pass_s));
  Rng rng(DeriveSeed(options.seed, "serve_traffic"));
  std::vector<std::vector<LadderStep>> ladders;
  std::vector<StepRun> runs;
  std::vector<double> attributed_s;
  for (int pass = 0; pass < passes; ++pass) {
    const bool traced = options.trace && (pass % 4 == 1 || pass % 4 == 2);
    std::vector<LadderStep> ladder;
    const auto t0 = Clock::now();
    Trace::Span job(traced ? &out->trace : nullptr, "job");
    for (const double rate : kLadderRps) {
      std::vector<size_t> picks(static_cast<size_t>(rate * kStepSeconds));
      for (size_t& p : picks) p = rng.UniformInt(setup.rows.size());
      Trace::Span span(traced ? &out->trace : nullptr,
                       "serving.latency_p50_us." +
                           std::to_string(static_cast<int>(rate)));
      runs.push_back(RunStep(server, setup, rate, picks));
      ladder.push_back(runs.back().step);
    }
    (traced ? out->traced_s : out->untraced_s).push_back(SecondsSince(t0));
    if (traced) attributed_s.push_back(out->trace.ChildSeconds(job.index()));
    ladders.push_back(std::move(ladder));
  }

  // Accounting identities, stated once.
  const ShardedStats stats = server->stats();
  uint64_t sent = 0, served = 0, shed = 0, failed = 0, mismatches = 0;
  for (const StepRun& run : runs) {
    sent += run.step.sent;
    served += run.step.served;
    shed += run.shed;
    failed += run.failed;
    mismatches += run.mismatches;
  }
  for (const ShardStats& s : stats.shards) {
    out->Check(s.submitted == s.served + s.shed + s.fault_shed,
               "shard " + std::to_string(s.shard) +
                   ": submitted != served + shed + fault_shed");
  }
  // Generator: sent = served + shed + failed, each side counted by the tier
  // itself, so a lost, duplicated or misfiled reply shows.
  out->Check(stats.submitted() - before.submitted() == sent,
             "generator sent != requests the tier admitted or shed");
  out->Check(stats.served() - before.served() == served,
             "generator served != served counted by the tier");
  out->Check(stats.shed() + stats.fault_shed() - before.shed() -
                     before.fault_shed() ==
                 shed + failed,
             "generator shed + failed != shed + fault_shed counted by the "
             "tier");
  out->Check(mismatches == 0,
             "served score differs from direct ModelServer::Score");
  out->attempted += sent;
  out->failed += sent - served;

  std::vector<double> reference_latencies, lag, submit, max_rates;
  double steadiest_p50_us = 0.0;
  for (const StepRun& run : runs) {
    lag.insert(lag.end(), run.lag_us.begin(), run.lag_us.end());
    submit.insert(submit.end(), run.submit_us.begin(), run.submit_us.end());
    if (run.step.rate_rps != kReferenceRps) continue;
    reference_latencies.insert(reference_latencies.end(),
                               run.step.latencies_us.begin(),
                               run.step.latencies_us.end());
    const double p50 = NearestRank(run.step.latencies_us, 0.5).value;
    if (steadiest_p50_us == 0.0 || p50 < steadiest_p50_us) {
      steadiest_p50_us = p50;
    }
  }
  for (const auto& ladder : ladders) {
    max_rates.push_back(MaxRate(ladder));
  }
  Metrics& m = out->metrics;
  if (!options.trace) {
    m.Set("setup_s", Median(out->setup_s), "s");
    m.Set("served_share",
          static_cast<double>(served) /
              static_cast<double>(std::max<uint64_t>(1, sent)),
          "share");
    m.Set("auprc", auprcs.front(), "ap");
    // A request is this workload's unit of work, so its latency is the
    // run_s: the p50 at the reference rate of the steadiest pass. Time
    // stolen from the VM moved the pooled p50 of identical runs by up to
    // 20x (see README.md).
    m.Set("run_s", steadiest_p50_us * 1e-6, "s");
    return;
  }
  uint64_t batches = 0, batched = 0, fault_shed = 0;
  size_t high_water = 0;
  for (const ShardStats& s : stats.shards) {
    batches += s.batches;
    fault_shed += s.fault_shed;
    high_water = std::max(high_water, s.queue_high_water);
    for (size_t b = 0; b < s.batch_size_hist.size(); ++b) {
      batched += s.batch_size_hist[b] * (b + 1);
    }
  }
  m.Set("serving.direct_score_us", setup.direct_score_us, "us");
  m.Set("serving.submit_us_p50", NearestRank(submit, 0.5).value, "us");
  m.Set("serving.batches", static_cast<double>(batches), "count");
  m.Set("serving.mean_batch",
        static_cast<double>(batched) /
            static_cast<double>(std::max<uint64_t>(1, batches)),
        "count");
  m.Set("serving.queue_high_water", static_cast<double>(high_water), "count");
  m.Set("serving.shed", static_cast<double>(shed), "count");
  m.Set("serving.fault_shed", static_cast<double>(fault_shed), "count");
  for (const double rate : kLadderRps) {
    std::vector<double> pooled;
    for (const StepRun& run : runs) {
      if (run.step.rate_rps != rate) continue;
      pooled.insert(pooled.end(), run.step.latencies_us.begin(),
                    run.step.latencies_us.end());
    }
    m.Set("serving.latency_p50_us." + std::to_string(static_cast<int>(rate)),
          NearestRank(pooled, 0.5).value, "us");
  }
  const Percentile p99 = NearestRank(reference_latencies, 0.99);
  m.Set("serving.latency_p99_us", p99.value, "us");
  m.Set("serving.latency_p999_us",
        NearestRank(reference_latencies, 0.999).value, "us");
  m.Set("serving.latency_samples", static_cast<double>(p99.samples), "count");
  m.Set("serving.gen_lag_p99_us", NearestRank(lag, 0.99).value, "us");
  m.Set("serving.max_rate_rps", Median(max_rates), "1/s");
  FinishTracedRun(attributed_s, out);
}

}  // namespace perfbench
