// Benchmark-owned tests: the probes are neutral (bit-identical replications
// with and without them, on every workload), and every correctness check the
// benchmark makes fires on a deliberately broken input.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <random>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.hpp"
#include "histogram.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace hostbench {
namespace {

constexpr std::uint64_t kSeed = 0x5eed2006;

/// Replications per workload for the neutrality tests (churn256 replications
/// take tens of milliseconds each).
std::uint64_t reps_for(const std::string& name) { return name == "churn256" ? 3 : 40; }

class NeutralityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(NeutralityTest, ProbedReplicationsAreBitIdentical) {
  const Workload plain = build_workload(GetParam());
  Workload probed = plain.clone();
  PolicyStats policy_stats;
  DelayStats delay_stats;
  probed.policy() = std::make_unique<TimedPolicy>(std::move(probed.policy()), policy_stats);
  if (probed.engine == Engine::kMc) {
    probed.scenario.delay_model =
        std::make_unique<TimedDelay>(probed.scenario.params.per_task_delay_mean, delay_stats);
  }
  Runner plain_runner(plain);
  Runner probed_runner(probed);
  const AllocCounts before = alloc_counts();
  for (std::uint64_t rep = 0; rep < reps_for(GetParam()); ++rep) {
    const mc::RunResult expected = plain_runner.run(kSeed, rep).result;
    set_alloc_counting(true);
    const mc::RunResult got = probed_runner.run(kSeed, rep).result;
    set_alloc_counting(false);
    EXPECT_TRUE(bit_identical(expected, got)) << GetParam() << " rep " << rep;
  }
  // The probes saw the work they claim to measure.
  EXPECT_GT(policy_stats.total_calls(), 0u);
  EXPECT_GT(policy_stats.view_calls, 0u);
  EXPECT_GT(alloc_counts().count, before.count);
  if (GetParam() == "paper2") {
    EXPECT_GT(delay_stats.samples, 0u);
  }
}

TEST_P(NeutralityTest, ProgramSinksAreBitIdentical) {
  const Workload w = build_workload(GetParam());
  Runner plain_runner(w);
  Runner traced_runner(w);
  obs::Registry registry;
  obs::PhaseProfile profile;
  for (std::uint64_t rep = 0; rep < reps_for(GetParam()); ++rep) {
    mc::RunTrace trace;
    trace.record_queues = false;
    const mc::RunResult expected = plain_runner.run(kSeed, rep).result;
    const RepOutcome traced = traced_runner.run(kSeed, rep, RepSinks{&trace, &profile, &registry});
    EXPECT_TRUE(bit_identical(expected, traced.result)) << GetParam() << " rep " << rep;
    EXPECT_GT(trace.events.size(), 0u);
    ASSERT_TRUE(traced.events.has_value());
    EXPECT_GT(*traced.events, 0u);
  }
  EXPECT_EQ(profile.reps, reps_for(GetParam()));
}

TEST_P(NeutralityTest, BenchmarkFoldMatchesTheEngine) {
  const Workload w = build_workload(GetParam());
  Runner runner(w);
  lbsim::stoch::RunningStats fold;
  const std::uint64_t reps = reps_for(GetParam());
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    const mc::RunResult run = runner.run(kSeed, rep).result;
    EXPECT_TRUE(tasks_conserved(run, w.total_tasks));
    EXPECT_TRUE(churn_bookkeeping_ok(run, w.nodes));
    fold.add(run.completion_time);
  }
  EXPECT_TRUE(fold_matches(fold, engine_fold(w, kSeed, reps)));
}

INSTANTIATE_TEST_SUITE_P(Workloads, NeutralityTest,
                         ::testing::Values("paper2", "churn256", "lossy_testbed"));

TEST(WorkloadTest, RegistryBuildsTheDocumentedConfigs) {
  const Workload paper2 = build_workload("paper2");
  EXPECT_EQ(paper2.engine, Engine::kMc);
  EXPECT_EQ(paper2.nodes, 2u);
  EXPECT_EQ(paper2.total_tasks, 160u);
  EXPECT_EQ(paper2.streams_per_rep(), 5u);

  const Workload churn = build_workload("churn256");
  EXPECT_EQ(churn.nodes, 256u);
  EXPECT_EQ(churn.shards, 8u);
  EXPECT_EQ(churn.streams_per_rep(), 513u);

  const Workload lossy = build_workload("lossy_testbed");
  EXPECT_EQ(lossy.engine, Engine::kTestbed);
  EXPECT_EQ(lossy.testbed_config.channel.states, 2u);

  EXPECT_THROW((void)build_workload("paper3"), std::invalid_argument);
}

TEST(WorkloadTest, ExactMeanOnlyWhereASolverApplies) {
  ASSERT_TRUE(exact_mean(build_workload("paper2")).has_value());
  EXPECT_NEAR(*exact_mean(build_workload("paper2")), 116.75, 0.05);
  EXPECT_FALSE(exact_mean(build_workload("lossy_testbed")).has_value());
}

// --- every check fires on a deliberately broken input ---

mc::RunResult sample_result() {
  mc::RunResult run;
  run.completion_time = 117.25;
  run.failures = 5;
  run.recoveries = 4;
  run.tasks_completed = 160;
  run.sojourn.add(3.0);
  return run;
}

TEST(CheckTest, TaskConservationFires) {
  mc::RunResult run = sample_result();
  EXPECT_TRUE(tasks_conserved(run, 160));
  run.tasks_completed = 159;  // a task lost
  EXPECT_FALSE(tasks_conserved(run, 160));
  run.tasks_completed = 161;  // a task completed twice
  EXPECT_FALSE(tasks_conserved(run, 160));
}

TEST(CheckTest, ChurnBookkeepingFires) {
  mc::RunResult run = sample_result();
  EXPECT_TRUE(churn_bookkeeping_ok(run, 2));
  run.recoveries = 6;  // a node recovered without failing
  EXPECT_FALSE(churn_bookkeeping_ok(run, 2));
  run.recoveries = 2;  // 3 nodes still down in a 2-node system
  EXPECT_FALSE(churn_bookkeeping_ok(run, 2));
}

TEST(CheckTest, BitIdentityFiresOnOneUlp) {
  const mc::RunResult a = sample_result();
  EXPECT_TRUE(bit_identical(a, a));
  mc::RunResult b = a;
  b.completion_time = std::nextafter(a.completion_time, 1e9);
  EXPECT_FALSE(bit_identical(a, b));
  b = a;
  b.sojourn.add(0.0);
  EXPECT_FALSE(bit_identical(a, b));
  b = a;
  b.state_packets_lost += 1;
  EXPECT_FALSE(bit_identical(a, b));
}

/// A deliberately non-neutral decorator: halves the last t = 0 directive, the
/// kind of behavioural change the identity checks must catch.
class LossyPolicy final : public core::LoadBalancingPolicy {
 public:
  explicit LossyPolicy(core::PolicyPtr inner) : inner_(std::move(inner)) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::vector<core::TransferDirective> on_start(
      const core::SystemView& view) override {
    std::vector<core::TransferDirective> d = inner_->on_start(view);
    if (!d.empty()) d.back().count /= 2;
    return d;
  }
  [[nodiscard]] core::PolicyPtr clone() const override {
    return std::make_unique<LossyPolicy>(inner_->clone());
  }

 private:
  core::PolicyPtr inner_;
};

TEST(CheckTest, TracedIdentityFiresOnANonNeutralDecorator) {
  const Workload plain = build_workload("paper2");
  Workload broken = plain.clone();
  broken.policy() = std::make_unique<LossyPolicy>(std::move(broken.policy()));
  Runner plain_runner(plain);
  Runner broken_runner(broken);
  std::size_t differing = 0;
  for (std::uint64_t rep = 0; rep < 10; ++rep) {
    if (!bit_identical(plain_runner.run(kSeed, rep).result, broken_runner.run(kSeed, rep).result)) {
      ++differing;
    }
  }
  EXPECT_EQ(differing, 10u);
}

TEST(CheckTest, FoldCheckFiresOnAWrongOrShortFold) {
  const Workload w = build_workload("paper2");
  Runner runner(w);
  std::vector<double> times;
  for (std::uint64_t rep = 0; rep < 30; ++rep) times.push_back(runner.run(kSeed, rep).result.completion_time);
  const lbsim::stoch::RunningStats engine = engine_fold(w, kSeed, times.size());

  lbsim::stoch::RunningStats good;
  for (const double t : times) good.add(t);
  EXPECT_TRUE(fold_matches(good, engine));

  // One replication folded in place of another.
  lbsim::stoch::RunningStats wrong_rep;
  for (std::size_t i = 0; i + 1 < times.size(); ++i) wrong_rep.add(times[i]);
  wrong_rep.add(runner.run(kSeed, times.size()).result.completion_time);
  EXPECT_FALSE(fold_matches(wrong_rep, engine));

  lbsim::stoch::RunningStats short_fold;
  for (std::size_t i = 0; i + 1 < times.size(); ++i) short_fold.add(times[i]);
  EXPECT_FALSE(fold_matches(short_fold, engine));
}

TEST(CheckTest, AccuracyFiresFarFromTheSolver) {
  const Workload w = build_workload("paper2");
  Runner runner(w);
  lbsim::stoch::RunningStats fold;
  for (std::uint64_t rep = 0; rep < 400; ++rep) fold.add(runner.run(kSeed, rep).result.completion_time);
  const double exact = *exact_mean(w);
  const Accuracy ok = accuracy(fold, exact);
  EXPECT_TRUE(ok.ok) << "z = " << ok.z;
  const Accuracy off = accuracy(fold, exact + 5.0 * fold.std_error());
  EXPECT_FALSE(off.ok);
  EXPECT_GT(off.z, -6.0);
  EXPECT_LT(off.z, -4.0);
  lbsim::stoch::RunningStats single;
  single.add(exact + 1.0);
  EXPECT_FALSE(accuracy(single, exact).ok);  // no standard error: cannot pass
}

TEST(CheckTest, TallyCountsFailures) {
  CheckTally tally;
  EXPECT_TRUE(tally.record(true, "a"));
  EXPECT_FALSE(tally.record(false, "b"));
  EXPECT_EQ(tally.attempted(), 2u);
  EXPECT_EQ(tally.failed(), 1u);
  ASSERT_EQ(tally.messages().size(), 1u);
  EXPECT_EQ(tally.messages()[0], "b");
}

// --- probe mechanics ---

TEST(ProbeTest, AllocationCounterCountsOnlyWhileOn) {
  const AllocCounts before = alloc_counts();
  auto off = std::make_unique<double>(1.0);
  EXPECT_EQ(alloc_counts().count, before.count);
  set_alloc_counting(true);
  auto on = std::make_unique<std::vector<double>>(100);
  set_alloc_counting(false);
  const AllocCounts after = alloc_counts();
  EXPECT_EQ(after.count - before.count, 2u);  // the vector object and its buffer
  EXPECT_GE(after.bytes - before.bytes, 100 * sizeof(double));
}

TEST(ProbeTest, CountingViewDelegatesEveryCall) {
  // LBP-1's on_start reads the two-node view through the decorator.
  Workload probed = build_workload("paper2");
  PolicyStats stats;
  probed.policy() = std::make_unique<TimedPolicy>(std::move(probed.policy()), stats);
  Runner runner(probed);
  (void)runner.run(kSeed, 0);
  EXPECT_EQ(stats.calls[static_cast<std::size_t>(Hook::kStart)], 1u);
  EXPECT_GT(stats.view_calls, 0u);
  EXPECT_GT(stats.tasks_requested, 0u);
  EXPECT_GT(stats.total_ns(), 0.0);
}

TEST(ProbeTest, SpanRecorderIsBoundedAndWritesChromeTrace) {
  SpanRecorder spans(3);
  spans.add("ignored", Clock::now(), Clock::now());  // inactive: not kept
  spans.set_active(true);
  const std::uint64_t rep_span = spans.begin_rep(1);
  const Clock::time_point t0 = Clock::now();
  spans.add("core.on_start", t0, Clock::now());
  spans.add_child("rep", spans.since_origin_ns(t0), 10.0, 0);
  spans.add_child("mc.loop", spans.since_origin_ns(t0), 5.0, rep_span);
  spans.add_child("mc.setup", spans.since_origin_ns(t0), 5.0, rep_span);  // over capacity
  ASSERT_EQ(spans.spans().size(), 3u);
  EXPECT_EQ(spans.dropped(), 1u);
  EXPECT_EQ(spans.spans()[0].parent, rep_span);
  EXPECT_EQ(spans.spans()[1].id, rep_span);
  const std::string path = "hostbench_test_spans.trace.json";
  ASSERT_TRUE(spans.write_chrome_trace(path));
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"core.on_start\""), std::string::npos);
  std::remove(path.c_str());
}

// --- per-call time histogram ---

TEST(HistogramTest, QuantilesAreWithinABucketOfTheExactOnes) {
  std::mt19937_64 gen(7);
  std::lognormal_distribution<double> law(std::log(40e3), 0.3);  // ~40 us calls
  std::vector<double> values;
  LogHistogram hist;
  for (int i = 0; i < 5001; ++i) {
    values.push_back(law(gen));
    hist.add(values.back());
  }
  ASSERT_EQ(hist.count(), values.size());
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    const double exact = stoch::quantile(values, q);
    EXPECT_NEAR(hist.quantile(q), exact, 0.016 * exact) << "q=" << q;
  }
  EXPECT_EQ(hist.count_beyond(0.9), 500u);
  EXPECT_EQ(LogHistogram{}.quantile(0.5), 0.0);
}

TEST(HistogramTest, KeepsItsSizeWhateverTheCount) {
  // The benchmark's buffers must not grow with the replications a fast
  // machine completes, or peak_rss_mb would measure machine speed.
  LogHistogram hist;
  set_alloc_counting(true);
  const AllocCounts before = alloc_counts();
  for (int i = 0; i < 1000000; ++i) hist.add(1e3 + i);
  const AllocCounts after = alloc_counts();
  set_alloc_counting(false);
  EXPECT_EQ(after.count, before.count);
  EXPECT_EQ(hist.count(), 1000000u);
  hist.add(1.0);    // below the range: first bucket
  hist.add(1e15);   // above the range: last bucket
  EXPECT_LT(hist.quantile(0.0), 1e3);
  EXPECT_GT(hist.quantile(1.0), 1e11);
}

}  // namespace
}  // namespace hostbench
