// Tests for the periodic-rebalance extension policy and its engine wiring.

#include <gtest/gtest.h>

#include "core/lbp2.hpp"
#include "lf_reference.hpp"
#include "core/periodic.hpp"
#include "mc/engine.hpp"
#include "mc/scenario.hpp"

namespace lbsim::core {
namespace {

class FakeView final : public SystemView {
 public:
  FakeView(std::vector<markov::NodeParams> nodes, std::vector<std::size_t> queues)
      : nodes_(std::move(nodes)), queues_(std::move(queues)), up_(nodes_.size(), true) {}
  [[nodiscard]] std::size_t node_count() const override { return nodes_.size(); }
  [[nodiscard]] std::size_t queue_length(int n) const override {
    return queues_.at(static_cast<std::size_t>(n));
  }
  [[nodiscard]] bool is_up(int n) const override {
    return up_.at(static_cast<std::size_t>(n));
  }
  [[nodiscard]] markov::NodeParams node_params(int n) const override {
    return nodes_.at(static_cast<std::size_t>(n));
  }
  [[nodiscard]] double per_task_delay_mean() const override { return 0.02; }
  void set_down(int n) { up_.at(static_cast<std::size_t>(n)) = false; }
  void set_queue(int n, std::size_t q) { queues_.at(static_cast<std::size_t>(n)) = q; }

 private:
  std::vector<markov::NodeParams> nodes_;
  std::vector<std::size_t> queues_;
  std::vector<bool> up_;
};

std::vector<markov::NodeParams> paper_nodes() {
  return {markov::NodeParams{1.08, 0.05, 0.1}, markov::NodeParams{1.86, 0.05, 0.05}};
}

TEST(PeriodicPolicyTest, RebalancesOnTick) {
  PeriodicRebalancePolicy policy(5.0, 1.0);
  FakeView view(paper_nodes(), {100, 200});
  const auto directives = policy.on_periodic(view);
  ASSERT_EQ(directives.size(), 1u);
  EXPECT_EQ(directives[0].from, 1);
  EXPECT_EQ(directives[0].count, 10u);  // full excess of node 1
}

TEST(PeriodicPolicyTest, BalancedTickIsSilent) {
  PeriodicRebalancePolicy policy(5.0, 1.0);
  FakeView view(paper_nodes(), {110, 190});  // ~fair shares for (1.08, 1.86)
  EXPECT_TRUE(policy.on_periodic(view).empty());
}

TEST(PeriodicPolicyTest, DownSenderSkipped) {
  PeriodicRebalancePolicy policy(5.0, 1.0);
  FakeView view(paper_nodes(), {100, 200});
  view.set_down(1);
  EXPECT_TRUE(policy.on_periodic(view).empty());
}

TEST(PeriodicPolicyTest, FailureCompensationOptIn) {
  PeriodicRebalancePolicy bare(5.0, 1.0, false);
  PeriodicRebalancePolicy with_lf(5.0, 1.0, true);
  FakeView view(paper_nodes(), {50, 50});
  EXPECT_TRUE(bare.on_failure(1, view).empty());
  const auto directives = with_lf.on_failure(1, view);
  ASSERT_EQ(directives.size(), 1u);
  EXPECT_EQ(directives[0].count, 9u);  // eq. (8) constant
}

TEST(PeriodicPolicyTest, ValidationAndClone) {
  EXPECT_THROW(PeriodicRebalancePolicy(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(PeriodicRebalancePolicy(5.0, 1.5), std::invalid_argument);
  PeriodicRebalancePolicy policy(5.0, 0.8, true);
  EXPECT_EQ(policy.clone()->name(), policy.name());
  EXPECT_NE(policy.name().find("+LF"), std::string::npos);
}

TEST(PeriodicPolicyTest, DefaultPoliciesIgnoreTicks) {
  Lbp2Policy policy(1.0);
  FakeView view(paper_nodes(), {100, 200});
  EXPECT_TRUE(policy.on_periodic(view).empty());
}

TEST(PeriodicPolicyTest, FailureCompensationMatchesReferenceScan) {
  // Periodic+LF walks the same LfTable row as LBP-2 (never state-aware):
  // every failure, capped or not, equals the per-receiver eq. (8) scan.
  const std::vector<markov::NodeParams> nodes{{1.0, 0.05, 0.02}, {1.5, 0.1, 0.01},
                                              {2.0, 0.05, 0.05}, {0.8, 0.02, 0.01},
                                              {1.2, 0.0, 0.0}};
  PeriodicRebalancePolicy policy(5.0, 1.0, true);
  FakeView view(nodes, {0, 0, 0, 0, 0});
  view.set_down(2);
  std::size_t directives_seen = 0;
  for (const bool started : {false, true}) {
    if (started) (void)policy.on_start(view);
    for (const std::size_t queue : {0u, 3u, 40u, 500u}) {
      for (int node = 0; node < 5; ++node) {
        view.set_queue(node, queue);
        test::expect_same_outcome(
            [&] { return policy.on_failure(node, view); },
            [&] { return test::reference_failure_transfers(node, view, false); });
        if (node != 4) directives_seen += policy.on_failure(node, view).size();
      }
    }
  }
  EXPECT_GT(directives_seen, 10u);
  // The clone shares the built table and gives the same answers.
  const PolicyPtr clone = policy.clone();
  view.set_queue(1, 40);
  test::expect_same_directives(clone->on_failure(1, view),
                               test::reference_failure_transfers(1, view, false));
}

// ---------- engine wiring ----------

TEST(PeriodicEngineTest, TimerFiresAndMovesTasks) {
  mc::ScenarioConfig config = mc::make_two_node_scenario(
      markov::ipdps2006_params(), 100, 60,
      std::make_unique<PeriodicRebalancePolicy>(5.0, 1.0));
  config.rebalance_period = 5.0;
  const mc::RunResult run = mc::run_scenario(config, 3, 0);
  EXPECT_EQ(run.tasks_completed, 160u);
  // The t=0 balance plus several periodic corrections.
  EXPECT_GT(run.bundles_sent, 1u);
}

TEST(PeriodicEngineTest, PeriodicBeatsOneShotUnderChurn) {
  // Continuous correction absorbs churn-induced imbalance better than the
  // same policy with its timer disabled.
  mc::McConfig mc_cfg;
  mc_cfg.replications = 500;
  mc::ScenarioConfig periodic = mc::make_two_node_scenario(
      markov::ipdps2006_params(), 160, 0,
      std::make_unique<PeriodicRebalancePolicy>(10.0, 1.0));
  periodic.rebalance_period = 10.0;
  mc::ScenarioConfig one_shot = periodic.clone();
  one_shot.rebalance_period = 0.0;
  const double with_timer = mc::run_monte_carlo(periodic, mc_cfg).mean();
  const double without_timer = mc::run_monte_carlo(one_shot, mc_cfg).mean();
  EXPECT_LT(with_timer, without_timer);
}

TEST(PeriodicEngineTest, ZeroPeriodMeansNoTicks) {
  mc::ScenarioConfig config = mc::make_two_node_scenario(
      markov::ipdps2006_params(), 40, 40,
      std::make_unique<PeriodicRebalancePolicy>(5.0, 1.0));
  const mc::RunResult run = mc::run_scenario(config, 4, 0);
  EXPECT_EQ(run.tasks_completed, 80u);
}

}  // namespace
}  // namespace lbsim::core
