// Tests for the policy layer: excess-load arithmetic (eqs. (6)-(8)) and the
// LBP-1 / LBP-2 / baseline directive generation.

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <utility>

#include "cli/config.hpp"
#include "cli/registry.hpp"
#include "core/baseline.hpp"
#include "core/excess.hpp"
#include "core/lbp1.hpp"
#include "core/lbp2.hpp"
#include "core/lf_table.hpp"
#include "lf_reference.hpp"

namespace lbsim::core {
namespace {

/// A canned SystemView for policy unit tests.
class FakeView final : public SystemView {
 public:
  FakeView(std::vector<markov::NodeParams> nodes, std::vector<std::size_t> queues,
           double d = 0.02)
      : nodes_(std::move(nodes)), queues_(std::move(queues)), d_(d),
        up_(nodes_.size(), true) {}

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
  [[nodiscard]] double per_task_delay_mean() const override { return d_; }

  void set_down(int n) { up_.at(static_cast<std::size_t>(n)) = false; }
  void set_queue(int n, std::size_t q) { queues_.at(static_cast<std::size_t>(n)) = q; }

 private:
  std::vector<markov::NodeParams> nodes_;
  std::vector<std::size_t> queues_;
  double d_;
  std::vector<bool> up_;
};

std::vector<markov::NodeParams> paper_nodes() {
  return {markov::NodeParams{1.08, 0.05, 0.1}, markov::NodeParams{1.86, 0.05, 0.05}};
}

// ---------- excess-load arithmetic ----------

TEST(ExcessTest, FairShareProportionalToSpeed) {
  // (100, 200) with rates (1.08, 1.86): fair shares 110.2 / 189.8, so node 1
  // holds ~10.2 excess and node 0 none (worked example from Section 4 data).
  const std::vector<double> rates{1.08, 1.86};
  const std::vector<std::size_t> loads{100, 200};
  EXPECT_DOUBLE_EQ(excess_load(rates, loads, 0), 0.0);
  EXPECT_NEAR(excess_load(rates, loads, 1), 200.0 - (1.86 / 2.94) * 300.0, 1e-9);
}

TEST(ExcessTest, BalancedSystemHasNoExcess) {
  const std::vector<double> rates{1.0, 1.0};
  const std::vector<std::size_t> loads{50, 50};
  EXPECT_DOUBLE_EQ(excess_load(rates, loads, 0), 0.0);
  EXPECT_DOUBLE_EQ(excess_load(rates, loads, 1), 0.0);
}

TEST(ExcessTest, TwoNodePartitionIsEverything) {
  const std::vector<double> rates{1.08, 1.86};
  const std::vector<std::size_t> loads{100, 200};
  EXPECT_DOUBLE_EQ(partition_fraction(rates, loads, 0, 1), 1.0);
  EXPECT_DOUBLE_EQ(partition_fraction(rates, loads, 1, 1), 0.0);  // p_jj = 0
}

TEST(ExcessTest, PartitionFractionsSumToOne) {
  const std::vector<double> rates{1.0, 2.0, 4.0, 0.5};
  const std::vector<std::size_t> loads{40, 10, 5, 20};
  for (std::size_t j = 0; j < 4; ++j) {
    double sum = 0.0;
    for (std::size_t i = 0; i < 4; ++i) sum += partition_fraction(rates, loads, i, j);
    EXPECT_NEAR(sum, 1.0, 1e-12) << "j=" << j;
  }
}

TEST(ExcessTest, SmallerNormalisedLoadGetsBiggerFraction) {
  const std::vector<double> rates{1.0, 1.0, 1.0};
  const std::vector<std::size_t> loads{90, 10, 30};  // node 0 is overloaded
  const double to_light = partition_fraction(rates, loads, 1, 0);
  const double to_heavy = partition_fraction(rates, loads, 2, 0);
  EXPECT_GT(to_light, to_heavy);
}

TEST(ExcessTest, PaperLfConstants) {
  // With the Section 4 parameters: node 0 fails -> 3 tasks to node 1; node 1
  // fails -> 9 tasks to node 0 (worked out from eq. (8)).
  const auto nodes = paper_nodes();
  EXPECT_EQ(lbp2_failure_transfer(nodes, 1, 0), 3u);
  EXPECT_EQ(lbp2_failure_transfer(nodes, 0, 1), 9u);
}

TEST(ExcessTest, LfRequiresRecoveryLaw) {
  auto nodes = paper_nodes();
  nodes[1].lambda_f = 0.0;
  nodes[1].lambda_r = 0.0;
  EXPECT_THROW((void)lbp2_failure_transfer(nodes, 0, 1), std::invalid_argument);
}

TEST(ExcessTest, InitialBalanceTransfersMatchHandComputation) {
  // (100, 200), rates (1.08, 1.86), K = 0.8: node 1 sends round(0.8 * 10.2) = 8.
  const auto transfers =
      initial_balance_transfers({1.08, 1.86}, {100, 200}, 0.8);
  ASSERT_EQ(transfers.size(), 1u);
  EXPECT_EQ(transfers[0].from, 1u);
  EXPECT_EQ(transfers[0].to, 0u);
  EXPECT_EQ(transfers[0].count, 8u);
}

TEST(ExcessTest, InitialBalanceZeroGainMovesNothing) {
  EXPECT_TRUE(initial_balance_transfers({1.08, 1.86}, {100, 200}, 0.0).empty());
}

TEST(ExcessTest, InitialBalanceThreeNodes) {
  const std::vector<double> rates{1.0, 1.0, 1.0};
  const std::vector<std::size_t> loads{90, 0, 0};
  const auto transfers = initial_balance_transfers(rates, loads, 1.0);
  ASSERT_EQ(transfers.size(), 2u);
  std::size_t total = 0;
  for (const auto& t : transfers) {
    EXPECT_EQ(t.from, 0u);
    total += t.count;
  }
  EXPECT_EQ(total, 60u);  // excess = 90 - 30 = 60, split 30/30
}

// ---------- LBP-1 ----------

TEST(Lbp1Test, TwoNodeDirective) {
  Lbp1Policy policy(0, 0.35);
  FakeView view(paper_nodes(), {100, 60});
  const auto directives = policy.on_start(view);
  ASSERT_EQ(directives.size(), 1u);
  EXPECT_EQ(directives[0].from, 0);
  EXPECT_EQ(directives[0].to, 1);
  EXPECT_EQ(directives[0].count, 35u);
}

TEST(Lbp1Test, ZeroGainNoDirective) {
  Lbp1Policy policy(1, 0.0);
  FakeView view(paper_nodes(), {100, 60});
  EXPECT_TRUE(policy.on_start(view).empty());
}

TEST(Lbp1Test, NoActionOnFailureOrRecovery) {
  Lbp1Policy policy(0, 0.35);
  FakeView view(paper_nodes(), {100, 60});
  EXPECT_TRUE(policy.on_failure(0, view).empty());
  EXPECT_TRUE(policy.on_recovery(1, view).empty());
}

TEST(Lbp1Test, MultiNodeFormUsesExcessPartition) {
  Lbp1Policy policy(1.0);
  FakeView view({markov::NodeParams{1.0, 0.0, 0.0}, markov::NodeParams{1.0, 0.0, 0.0},
                 markov::NodeParams{1.0, 0.0, 0.0}},
                {90, 0, 0});
  const auto directives = policy.on_start(view);
  ASSERT_EQ(directives.size(), 2u);
  EXPECT_EQ(directives[0].from, 0);
}

TEST(Lbp1Test, ExplicitSenderRequiresTwoNodes) {
  Lbp1Policy policy(0, 0.5);
  FakeView view({markov::NodeParams{1.0, 0.0, 0.0}, markov::NodeParams{1.0, 0.0, 0.0},
                 markov::NodeParams{1.0, 0.0, 0.0}},
                {10, 10, 10});
  EXPECT_THROW((void)policy.on_start(view), std::invalid_argument);
}

TEST(Lbp1Test, ValidatesConstructionAndClones) {
  EXPECT_THROW(Lbp1Policy(2, 0.5), std::invalid_argument);
  EXPECT_THROW(Lbp1Policy(0, 1.5), std::invalid_argument);
  Lbp1Policy policy(1, 0.25);
  const PolicyPtr copy = policy.clone();
  EXPECT_EQ(copy->name(), policy.name());
}

// ---------- LBP-2 ----------

TEST(Lbp2Test, InitialBalanceDirective) {
  Lbp2Policy policy(0.8);
  FakeView view(paper_nodes(), {100, 200});
  const auto directives = policy.on_start(view);
  ASSERT_EQ(directives.size(), 1u);
  EXPECT_EQ(directives[0].from, 1);
  EXPECT_EQ(directives[0].to, 0);
  EXPECT_EQ(directives[0].count, 8u);
}

TEST(Lbp2Test, FailureTransferUsesLfConstants) {
  Lbp2Policy policy(1.0);
  FakeView view(paper_nodes(), {50, 50});
  view.set_down(1);
  const auto directives = policy.on_failure(1, view);
  ASSERT_EQ(directives.size(), 1u);
  EXPECT_EQ(directives[0].from, 1);
  EXPECT_EQ(directives[0].to, 0);
  EXPECT_EQ(directives[0].count, 9u);
}

TEST(Lbp2Test, FailureTransferCappedByQueue) {
  Lbp2Policy policy(1.0);
  FakeView view(paper_nodes(), {50, 4});  // node 1 only holds 4 tasks
  const auto directives = policy.on_failure(1, view);
  ASSERT_EQ(directives.size(), 1u);
  EXPECT_EQ(directives[0].count, 4u);
}

TEST(Lbp2Test, FailureOfEmptyNodeSendsNothing) {
  Lbp2Policy policy(1.0);
  FakeView view(paper_nodes(), {50, 0});
  EXPECT_TRUE(policy.on_failure(1, view).empty());
}

TEST(Lbp2Test, NoActionOnRecovery) {
  Lbp2Policy policy(1.0);
  FakeView view(paper_nodes(), {50, 50});
  EXPECT_TRUE(policy.on_recovery(0, view).empty());
}

TEST(Lbp2Test, ThreeNodeFailureSplitsAcrossPeers) {
  std::vector<markov::NodeParams> nodes{
      markov::NodeParams{1.0, 0.05, 0.1},
      markov::NodeParams{1.0, 0.05, 0.1},
      markov::NodeParams{2.0, 0.05, 0.1},
  };
  Lbp2Policy policy(1.0);
  FakeView view(nodes, {30, 30, 30});
  const auto directives = policy.on_failure(0, view);
  ASSERT_EQ(directives.size(), 2u);
  std::map<int, std::size_t> by_to;
  for (const auto& d : directives) by_to[d.to] = d.count;
  // Faster peer (node 2) receives more (eq. (8) scales with lambda_di).
  EXPECT_GT(by_to[2], by_to[1]);
}

TEST(Lbp2Test, NameCarriesGain) {
  EXPECT_NE(Lbp2Policy(0.8).name().find("0.8"), std::string::npos);
}

// ---------- baselines ----------

TEST(BaselineTest, NoBalancingDoesNothingEver) {
  NoBalancingPolicy policy;
  FakeView view(paper_nodes(), {100, 0});
  EXPECT_TRUE(policy.on_start(view).empty());
  EXPECT_TRUE(policy.on_failure(0, view).empty());
}

TEST(BaselineTest, ProportionalOnceFullyBalances) {
  ProportionalOncePolicy policy;
  FakeView view(paper_nodes(), {100, 200});
  const auto directives = policy.on_start(view);
  ASSERT_EQ(directives.size(), 1u);
  // Full excess of node 1: round(10.2) = 10.
  EXPECT_EQ(directives[0].count, 10u);
  EXPECT_TRUE(policy.on_failure(1, view).empty());
}

// ---------- O(n^2) initial balance and the LF table ----------

/// Unequal rates in [0.5, 3); failure laws with mean backlogs of 5-600 tasks,
/// so eq. (8) moves several tasks to many peers. With `never_fail`, about a
/// quarter of the nodes have no failure or recovery law at all (lambda_r = 0).
std::vector<markov::NodeParams> random_nodes(std::mt19937_64& rng, std::size_t n,
                                             bool never_fail) {
  std::vector<markov::NodeParams> nodes(n);
  for (auto& node : nodes) {
    node.lambda_d = 0.5 + static_cast<double>(rng() % 2500) / 1000.0;
    node.lambda_f = 0.01 + static_cast<double>(rng() % 200) / 1000.0;
    node.lambda_r = 0.005 + static_cast<double>(rng() % 100) / 1000.0;
    if (never_fail && rng() % 4 == 0) node.lambda_f = node.lambda_r = 0.0;
  }
  return nodes;
}

std::vector<double> rates_of(const std::vector<markov::NodeParams>& nodes) {
  std::vector<double> rates;
  for (const auto& node : nodes) rates.push_back(node.lambda_d);
  return rates;
}

TEST(InitialBalanceTest, BitIdenticalToPairwiseReference) {
  std::mt19937_64 rng(20060425);
  std::size_t transfers_seen = 0;
  for (const std::size_t n : {2u, 3u, 5u, 17u, 64u, 256u}) {
    const std::vector<double> rates = rates_of(random_nodes(rng, n, false));
    std::vector<std::vector<std::size_t>> cases;
    for (int c = 0; c < 3; ++c) {
      std::vector<std::size_t> loads(n);
      for (auto& m : loads) m = rng() % 4 == 0 ? 0 : rng() % 300;
      cases.push_back(std::move(loads));
    }
    // One loaded node, every receiver empty: the even-split branch.
    std::vector<std::size_t> lone(n, 0);
    lone[rng() % n] = 200 + rng() % 300;
    cases.push_back(std::move(lone));
    // A near-stalled node holding a large load: its m/lambda_d dwarfs the
    // rest, so an l != j sum formed as "total minus term" would lose every
    // other node's share and change the counts.
    std::vector<double> stalled_rates = rates;
    std::vector<std::size_t> stalled_loads = cases.front();
    const std::size_t stalled = rng() % n;
    stalled_rates[stalled] = 1e-12;
    stalled_loads[stalled] = 4000;
    std::vector<std::pair<std::vector<double>, std::vector<std::size_t>>> inputs;
    for (auto& loads : cases) inputs.emplace_back(rates, std::move(loads));
    inputs.emplace_back(std::move(stalled_rates), std::move(stalled_loads));
    for (const auto& [lambda_d, loads] : inputs) {
      for (const double gain : {0.0, 0.35, 1.0}) {
        const auto actual = initial_balance_transfers(lambda_d, loads, gain);
        const auto expected = test::reference_initial_balance(lambda_d, loads, gain);
        ASSERT_EQ(actual.size(), expected.size()) << "n=" << n << " gain=" << gain;
        for (std::size_t k = 0; k < actual.size(); ++k) {
          EXPECT_EQ(actual[k].from, expected[k].from) << "n=" << n << " k=" << k;
          EXPECT_EQ(actual[k].to, expected[k].to) << "n=" << n << " k=" << k;
          EXPECT_EQ(actual[k].count, expected[k].count) << "n=" << n << " k=" << k;
        }
        transfers_seen += actual.size();
      }
    }
  }
  EXPECT_GT(transfers_seen, 1000u);  // the sweep actually moves tasks
}

TEST(LfTableTest, RowsHoldEveryPositiveLfInIndexOrder) {
  std::mt19937_64 rng(20060425);
  for (const std::size_t n : {2u, 3u, 5u, 17u, 64u}) {
    const auto nodes = random_nodes(rng, n, true);
    const LfTable table(nodes);
    ASSERT_EQ(table.node_count(), n);
    EXPECT_EQ(table.processing_rates(), rates_of(nodes));
    const double rate_sum = total_processing_rate(nodes);
    for (std::size_t j = 0; j < n; ++j) {
      std::vector<LfTable::Receiver> expected;
      for (std::size_t i = 0; i < n && nodes[j].lambda_r > 0.0; ++i) {
        if (i == j) continue;
        const std::size_t lf = lbp2_failure_transfer(nodes, i, j, rate_sum);
        if (lf > 0) expected.push_back({static_cast<int>(i), lf});
      }
      const auto row = table.row(j);
      ASSERT_EQ(row.size(), expected.size()) << "n=" << n << " j=" << j;
      for (std::size_t k = 0; k < row.size(); ++k) {
        EXPECT_EQ(row[k].node, expected[k].node);
        EXPECT_EQ(row[k].count, expected[k].count);
      }
    }
  }
}

TEST(Lbp2LfTableTest, DirectivesMatchReferenceScan) {
  std::mt19937_64 rng(20060425);
  std::size_t directives_seen = 0;
  std::size_t capped = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 2 + rng() % 7;
    const auto nodes = random_nodes(rng, n, true);
    FakeView view(nodes, std::vector<std::size_t>(n));
    for (std::size_t i = 0; i < n; ++i) {
      view.set_queue(static_cast<int>(i), rng() % 3 == 0 ? 0 : rng() % 60);
      if (rng() % 3 == 0) view.set_down(static_cast<int>(i));
    }
    const LfTable table(nodes);
    for (const bool aware : {false, true}) {
      Lbp2Policy policy(0.5, aware);
      if (trial % 2 == 0) (void)policy.on_start(view);  // else on_failure builds it
      for (std::size_t j = 0; j < n; ++j) {
        const int node = static_cast<int>(j);
        test::expect_same_outcome([&] { return policy.on_failure(node, view); },
                                  [&] { return test::reference_failure_transfers(node, view, aware); });
        if (nodes[j].lambda_r == 0.0) continue;
        const auto reference = test::reference_failure_transfers(node, view, aware);
        directives_seen += reference.size();
        for (const auto& d : reference) {
          for (const auto& r : table.row(j)) capped += r.node == d.to && r.count > d.count;
        }
      }
    }
  }
  EXPECT_GT(directives_seen, 100u);
  EXPECT_GT(capped, 10u);  // queue caps are exercised, not just full rows
}

/// Three small clusters: A and B share n but not rates, C is larger.
std::vector<markov::NodeParams> cluster(double scale, std::size_t n) {
  std::vector<markov::NodeParams> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back({scale * (1.0 + 0.5 * static_cast<double>(i)), 0.05, 0.02});
  }
  return nodes;
}

void expect_policy_matches_reference(Lbp2Policy& policy, const FakeView& view,
                                     bool aware) {
  for (std::size_t j = 0; j < view.node_count(); ++j) {
    const int node = static_cast<int>(j);
    test::expect_same_directives(policy.on_failure(node, view),
                                 test::reference_failure_transfers(node, view, aware));
  }
}

TEST(Lbp2LfTableTest, OnePolicyFollowsViewsWithDifferentParams) {
  const FakeView a(cluster(1.0, 3), {40, 40, 40});
  const FakeView b(cluster(2.5, 3), {40, 40, 40});
  const FakeView c(cluster(1.0, 5), {40, 40, 40, 40, 40});
  ASSERT_FALSE(test::reference_failure_transfers(0, a, false).empty());
  Lbp2Policy policy(0.5);
  for (const FakeView* view : {&a, &b, &c, &a}) {
    (void)policy.on_start(*view);
    expect_policy_matches_reference(policy, *view, false);
  }
}

TEST(Lbp2LfTableTest, FailureBeforeAnyStartBuildsTheTable) {
  FakeView view(cluster(1.0, 4), {30, 5, 0, 30});
  view.set_down(1);
  for (const bool aware : {false, true}) {
    Lbp2Policy policy(0.5, aware);
    expect_policy_matches_reference(policy, view, aware);
  }
}

TEST(Lbp2LfTableTest, CloneSharesTablesButNotTheBinding) {
  const FakeView a(cluster(1.0, 4), {40, 40, 40, 40});
  const FakeView b(cluster(3.0, 4), {40, 40, 40, 40});
  Lbp2Policy original(0.5);
  (void)original.on_start(a);
  const PolicyPtr copy = original.clone();
  auto& clone = dynamic_cast<Lbp2Policy&>(*copy);
  expect_policy_matches_reference(clone, a, false);  // adopts the built table
  (void)clone.on_start(b);
  expect_policy_matches_reference(clone, b, false);
  expect_policy_matches_reference(original, a, false);  // still bound to a
}

TEST(Lbp2LfTableTest, NoRecoveryLawRaisesLikeTheScan) {
  // Node 1 has no failure law; if it fails anyway while holding tasks, LF is
  // undefined and the hook raises, exactly as the per-receiver scan did.
  const std::vector<markov::NodeParams> nodes{
      {1.0, 0.05, 0.1}, {1.5, 0.0, 0.0}, {2.0, 0.05, 0.1}};
  for (const bool aware : {false, true}) {
    Lbp2Policy policy(0.5, aware);
    FakeView holding(nodes, {10, 10, 10});
    (void)policy.on_start(holding);
    EXPECT_THROW((void)policy.on_failure(1, holding), std::invalid_argument);
    FakeView empty(nodes, {10, 0, 10});
    EXPECT_TRUE(policy.on_failure(1, empty).empty());
    // The other rows are unaffected.
    expect_policy_matches_reference(policy, FakeView(nodes, {10, 0, 10}), aware);
  }
  // State-aware with every peer believed down: no receiver is reached.
  FakeView isolated(nodes, {10, 10, 10});
  isolated.set_down(0);
  isolated.set_down(2);
  Lbp2Policy aware(0.5, true);
  EXPECT_TRUE(aware.on_failure(1, isolated).empty());
  Lbp2Policy plain(0.5);
  EXPECT_THROW((void)plain.on_failure(1, isolated), std::invalid_argument);
}

// ---------- deterministic work counts ----------

/// Forwards every SystemView call and counts them.
class CountingView final : public SystemView {
 public:
  explicit CountingView(const SystemView& inner) : inner_(inner) {}
  [[nodiscard]] std::size_t node_count() const override {
    ++calls_;
    return inner_.node_count();
  }
  [[nodiscard]] std::size_t queue_length(int n) const override {
    ++calls_;
    return inner_.queue_length(n);
  }
  [[nodiscard]] bool is_up(int n) const override {
    ++calls_;
    return inner_.is_up(n);
  }
  [[nodiscard]] markov::NodeParams node_params(int n) const override {
    ++calls_;
    return inner_.node_params(n);
  }
  [[nodiscard]] double per_task_delay_mean() const override {
    ++calls_;
    return inner_.per_task_delay_mean();
  }
  [[nodiscard]] std::size_t neighbor_count(int n) const override {
    ++calls_;
    return inner_.neighbor_count(n);
  }
  [[nodiscard]] int neighbor(int n, std::size_t k) const override {
    ++calls_;
    return inner_.neighbor(n, k);
  }
  /// Calls since the last take().
  std::size_t take() { return std::exchange(calls_, 0); }

 private:
  const SystemView& inner_;
  mutable std::size_t calls_ = 0;
};

struct HookCounts {
  std::size_t start = 0;        ///< view calls of one on_start (the larger of two)
  std::size_t max_failure = 0;  ///< most view calls any on_failure made
};

/// View calls LBP-2 makes on the many-node-churn family at `n` nodes (every
/// third peer down, so state-aware mode has mixed up/down receivers).
HookCounts lbp2_work(std::size_t n, bool aware) {
  const cli::ScenarioSpec& spec = cli::find_scenario("many-node-churn");
  cli::RawConfig raw;
  raw.set("nodes", std::to_string(n));
  raw.set("policy", "lbp2");
  const mc::ScenarioConfig scenario = spec.build(spec.schema.resolve(raw));
  FakeView base(scenario.params.nodes, scenario.workloads);
  for (std::size_t i = 1; i < n; i += 3) base.set_down(static_cast<int>(i));
  const LfTable table(scenario.params.nodes);
  CountingView view(base);
  Lbp2Policy policy(1.0, aware);
  HookCounts counts;
  (void)policy.on_start(view);  // builds the table
  counts.start = view.take();
  (void)policy.on_start(view);  // re-checks the key
  counts.start = std::max(counts.start, view.take());
  EXPECT_LE(counts.start, 2 * n + 1) << "n=" << n;
  for (std::size_t j = 0; j < n; ++j) {
    (void)policy.on_failure(static_cast<int>(j), view);
    const std::size_t calls = view.take();
    EXPECT_LE(calls, 1 + table.row(j).size()) << "n=" << n << " j=" << j;
    counts.max_failure = std::max(counts.max_failure, calls);
  }
  return counts;
}

TEST(PolicyWorkCountTest, Lbp2HookCostIsFlatFrom16To256Nodes) {
  for (const bool aware : {false, true}) {
    const HookCounts small = lbp2_work(16, aware);
    const HookCounts large = lbp2_work(256, aware);
    EXPECT_EQ(small.max_failure, 1u) << "aware=" << aware;
    EXPECT_EQ(large.max_failure, small.max_failure) << "aware=" << aware;
    EXPECT_EQ(small.start, 2 * 16 + 1);
    EXPECT_EQ(large.start, 2 * 256 + 1);
  }
}

}  // namespace
}  // namespace lbsim::core
