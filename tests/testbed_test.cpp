// Tests for the testbed emulation: the three-layer wiring, state exchange,
// distributed decisions, and consistency with the abstract model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

#include "cli/registry.hpp"
#include "core/baseline.hpp"
#include "core/lbp1.hpp"
#include "core/lbp2.hpp"
#include "markov/two_node_mean.hpp"
#include "testbed/config.hpp"
#include "testbed/experiment.hpp"
#include "testbed/state_exchange.hpp"

namespace lbsim::testbed {
namespace {

TEST(StateBoardTest, StoreAndRecall) {
  StateBoard board(3);
  net::StateInfoPacket packet;
  packet.sender = 1;
  packet.queue_size = 17;
  board.store(0, packet);
  EXPECT_EQ(board.last_heard(0, 1).queue_size, 17u);
  // Unheard peers read as the default packet.
  EXPECT_EQ(board.last_heard(2, 1).queue_size, 0u);
  EXPECT_THROW((void)board.last_heard(1, 1), std::invalid_argument);
}

TEST(TestbedConfigTest, PaperPresetAndValidation) {
  TestbedConfig config = paper_testbed(100, 60, std::make_unique<core::Lbp1Policy>(0, 0.35));
  EXPECT_NO_THROW(validate(config));
  EXPECT_DOUBLE_EQ(config.params.nodes[0].lambda_d, 1.08);
  TestbedConfig broken = config.clone();
  broken.policy = nullptr;
  EXPECT_THROW(validate(broken), std::invalid_argument);
  // loss = 1.0 is the blackout boundary and must validate; above 1 is
  // malformed.
  TestbedConfig blackout = config.clone();
  blackout.state_loss_probability = 1.0;
  EXPECT_NO_THROW(validate(blackout));
  TestbedConfig bad_loss = config.clone();
  bad_loss.state_loss_probability = 1.0 + 1e-9;
  EXPECT_THROW(validate(bad_loss), std::invalid_argument);
}

TEST(TestbedTest, RealizationCompletesAllTasks) {
  const TestbedConfig config =
      paper_testbed(100, 60, std::make_unique<core::Lbp1Policy>(0, 0.35));
  const mc::RunResult run = run_realization(config, 1, 0);
  EXPECT_EQ(run.tasks_completed, 160u);
  EXPECT_GT(run.completion_time, 0.0);
  EXPECT_EQ(run.tasks_moved, 35u);
}

TEST(TestbedTest, DeterministicPerReplication) {
  const TestbedConfig config =
      paper_testbed(100, 60, std::make_unique<core::Lbp1Policy>(0, 0.35));
  const mc::RunResult a = run_realization(config, 9, 4);
  const mc::RunResult b = run_realization(config, 9, 4);
  EXPECT_DOUBLE_EQ(a.completion_time, b.completion_time);
  EXPECT_EQ(a.failures, b.failures);
}

TEST(TestbedTest, TraceShowsFlatSegmentsDuringDownTime) {
  const TestbedConfig config =
      paper_testbed(100, 60, std::make_unique<core::Lbp2Policy>(1.0));
  mc::RunTrace trace;
  const mc::RunResult run = run_realization(config, 4, 1, &trace);
  ASSERT_EQ(trace.queue_lengths.size(), 2u);
  EXPECT_EQ(trace.events.count(obs::Kind::kFail), run.failures);
  EXPECT_DOUBLE_EQ(trace.queue_lengths[0].value_at(run.completion_time), 0.0);
  EXPECT_DOUBLE_EQ(trace.queue_lengths[1].value_at(run.completion_time), 0.0);
}

TEST(TestbedTest, NoChurnMatchesNoFailureTheory) {
  // With churn off and the Erlang delay's mean equal to the analytic model's,
  // the emulated mean must sit near the no-failure theory (the delay-law shape
  // difference moves the completion mean by far less than a second here).
  TestbedConfig config = paper_testbed(100, 60, std::make_unique<core::Lbp1Policy>(0, 0.45));
  config.churn_enabled = false;
  config.transfer_setup_shift = 0.0;
  const ExperimentSummary summary = run_experiment(config, 400, 77, 2);
  markov::TwoNodeMeanSolver solver(markov::without_failures(markov::ipdps2006_params()));
  const double theory = solver.lbp1_mean(100, 60, 0, 0.45);
  EXPECT_NEAR(summary.mean(), theory, std::max(1.0, 4.0 * summary.ci95() / 1.96));
}

TEST(TestbedTest, ChurnyMeanNearAbstractModel) {
  // The emulation differs from the abstract model (Erlang bundle delay, setup
  // shift, size-based service) but must land in the same regime as the theory
  // for the Fig. 3 operating point (~117 s); allow 10%.
  const TestbedConfig config =
      paper_testbed(100, 60, std::make_unique<core::Lbp1Policy>(0, 0.35));
  const ExperimentSummary summary = run_experiment(config, 300, 13, 2);
  EXPECT_NEAR(summary.mean(), 117.0, 0.10 * 117.0);
}

TEST(TestbedTest, SummaryAggregatesRealizations) {
  const TestbedConfig config =
      paper_testbed(50, 30, std::make_unique<core::Lbp1Policy>(0, 0.3));
  const ExperimentSummary summary = run_experiment(config, 20, 5, 2);
  EXPECT_EQ(summary.completion.count(), 20u);
  EXPECT_EQ(summary.samples.size(), 20u);
  EXPECT_TRUE(std::is_sorted(summary.samples.begin(), summary.samples.end()));
  EXPECT_GT(summary.mean(), 0.0);
}

TEST(TestbedTest, ThreadingInvariance) {
  const TestbedConfig config =
      paper_testbed(40, 20, std::make_unique<core::Lbp2Policy>(1.0));
  const ExperimentSummary a = run_experiment(config, 16, 3, 1);
  const ExperimentSummary b = run_experiment(config, 16, 3, 4);
  EXPECT_DOUBLE_EQ(a.mean(), b.mean());
}

TEST(TestbedTest, LossyStatePlaneStillCompletes) {
  TestbedConfig config = paper_testbed(60, 40, std::make_unique<core::Lbp2Policy>(1.0));
  config.state_loss_probability = 0.3;
  const mc::RunResult run = run_realization(config, 21, 0);
  EXPECT_EQ(run.tasks_completed, 100u);
}

TEST(TestbedTest, SetupShiftSlowsTransfers) {
  TestbedConfig fast = paper_testbed(100, 0, std::make_unique<core::Lbp1Policy>(0, 0.5));
  fast.churn_enabled = false;
  fast.transfer_setup_shift = 0.0;
  TestbedConfig slow = fast.clone();
  slow.transfer_setup_shift = 5.0;  // exaggerated for the test
  const ExperimentSummary a = run_experiment(fast, 60, 2, 2);
  const ExperimentSummary b = run_experiment(slow, 60, 2, 2);
  EXPECT_GT(b.mean(), a.mean());
}


// ---------- bit-identity pins of the emulation ----------

/// FNV-1a over every field of every trace record, in emission order: one
/// number that changes if any record's time, kind, endpoints, count or
/// payload moves, or if two records swap.
std::uint64_t trace_digest(const obs::TraceBuffer& events) {
  std::uint64_t hash = 1469598103934665603ull;
  events.for_each([&](const obs::Record& r) {
    const std::uint64_t fields[] = {obs::Record::pack_f64(r.time), r.kind,
                                    static_cast<std::uint32_t>(r.node),
                                    static_cast<std::uint32_t>(r.peer), r.count, r.payload};
    for (const std::uint64_t f : fields) {
      hash ^= f;
      hash *= 1099511628211ull;
    }
  });
  return hash;
}

/// The lossy-exchange family with `overrides`, mapped as every entry point
/// maps it.
TestbedConfig lossy_exchange(
    std::initializer_list<std::pair<const char*, const char*>> overrides) {
  const cli::ScenarioSpec& spec = cli::find_scenario("lossy-exchange");
  cli::RawConfig raw;
  for (const auto& [key, value] : overrides) raw.set(key, value);
  return from_scenario(spec.build(spec.schema.resolve(raw)));
}

TEST(TestbedPinTest, RealizationsBitIdenticalToGoldens) {
  // Captured with seed 0x5eed2006, replication 1. EXPECT_DOUBLE_EQ/EXPECT_EQ on
  // purpose: the emulation's stream layout (state plane at slot 2n+1), its
  // t = 0 order (initially-down nodes first, then one decision per node over
  // the seeded board) and its per-event wiring must not move a single draw,
  // event or trace record.
  struct Golden {
    const char* label;
    double completion_time;
    std::uint64_t failures, recoveries, tasks_moved, bundles_sent, state_lost;
    double state_age_mean;
    std::uint64_t state_age_count;
    std::size_t records;
    std::uint64_t digest;
  };
  static constexpr Golden kGoldens[] = {
      {"lbp1", 96.065654681604101, 8, 8, 35, 1, 0, 0.3488551731892604, 18, 367,
       0x95a92e017371409cull},
      {"lbp2", 98.028254014421876, 8, 8, 81, 9, 0, 0.3488551731892604, 18, 391,
       0x295b130d3fa3e0f5ull},
      {"lossy-exchange", 90.107288621935822, 8, 7, 59, 5, 37, 0.70179837033744119, 17, 435,
       0xd87abd2b636d8bbcull},
      {"channel.env", 106.09286385927929, 7, 6, 56, 4, 84, 1.0257201301834677, 15, 491,
       0x1403bd9304296c1cull},
      {"down.mask", 82.654794737196966, 6, 6, 66, 6, 32, 0.47314393183707754, 14, 425,
       0x7d8ede6871ea3f30ull},
  };
  std::vector<TestbedConfig> configs;
  configs.push_back(paper_testbed(100, 60, std::make_unique<core::Lbp1Policy>(0, 0.35)));
  configs.push_back(paper_testbed(100, 60, std::make_unique<core::Lbp2Policy>(1.0)));
  configs.push_back(lossy_exchange({}));
  configs.push_back(lossy_exchange({{"channel.env", "true"}}));
  configs.push_back(lossy_exchange({{"down.mask", "1"}}));
  ASSERT_EQ(configs.size(), std::size(kGoldens));
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const Golden& g = kGoldens[i];
    mc::RunTrace trace;
    const mc::RunResult run = run_realization(configs[i], 0x5eed2006, 1, &trace);
    EXPECT_DOUBLE_EQ(run.completion_time, g.completion_time) << g.label;
    EXPECT_EQ(run.failures, g.failures) << g.label;
    EXPECT_EQ(run.recoveries, g.recoveries) << g.label;
    EXPECT_EQ(run.tasks_moved, g.tasks_moved) << g.label;
    EXPECT_EQ(run.bundles_sent, g.bundles_sent) << g.label;
    EXPECT_EQ(run.state_packets_lost, g.state_lost) << g.label;
    EXPECT_DOUBLE_EQ(run.state_age.mean(), g.state_age_mean) << g.label;
    EXPECT_EQ(run.state_age.count(), g.state_age_count) << g.label;
    EXPECT_EQ(trace.events.size(), g.records) << g.label;
    EXPECT_EQ(trace_digest(trace.events), g.digest) << g.label;
  }
}

TEST(TestbedPinTest, ExperimentMeanBitIdenticalToGoldens) {
  // The fold over 24 realizations of the lossy-exchange defaults. The two
  // thread counts split the realizations differently across workers, so the
  // merged means differ in the last bit; each is pinned exactly.
  const TestbedConfig config = lossy_exchange({});
  EXPECT_DOUBLE_EQ(run_experiment(config, 24, 0x5eed2006, 1).mean(), 107.61321116713451);
  EXPECT_DOUBLE_EQ(run_experiment(config, 24, 0x5eed2006, 4).mean(), 107.61321116713454);
}

}  // namespace
}  // namespace lbsim::testbed
