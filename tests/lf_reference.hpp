#pragma once
/// \file lf_reference.hpp
/// Reference implementations the policy tests compare the tabulated LBP-2
/// arithmetic against: the per-receiver eq. (8) scan and the pairwise
/// eqs. (6)-(7) composition, both written directly on the public
/// excess.hpp functions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/excess.hpp"
#include "core/policy.hpp"

namespace lbsim::test {

/// LBP-2's failure response evaluated receiver by receiver: LF(i, node) from
/// the four-argument lbp2_failure_transfer for every peer in index order,
/// skipping peers believed down when `state_aware`, capped by the queue.
[[nodiscard]] inline std::vector<core::TransferDirective> reference_failure_transfers(
    int node, const core::SystemView& view, bool state_aware) {
  const std::size_t n = view.node_count();
  std::vector<markov::NodeParams> nodes(n);
  for (std::size_t i = 0; i < n; ++i) nodes[i] = view.node_params(static_cast<int>(i));
  const double rate_sum = core::total_processing_rate(nodes);
  std::vector<core::TransferDirective> directives;
  std::size_t available = view.queue_length(node);
  for (std::size_t i = 0; i < n && available > 0; ++i) {
    if (static_cast<int>(i) == node) continue;
    if (state_aware && !view.is_up(static_cast<int>(i))) continue;
    const std::size_t lf =
        core::lbp2_failure_transfer(nodes, i, static_cast<std::size_t>(node), rate_sum);
    if (lf == 0) continue;
    const std::size_t count = std::min(lf, available);
    available -= count;
    directives.push_back(core::TransferDirective{node, static_cast<int>(i), count});
  }
  return directives;
}

/// eq. (7) composed pair by pair from excess_load and partition_fraction.
[[nodiscard]] inline std::vector<core::InitialTransfer> reference_initial_balance(
    const std::vector<double>& lambda_d, const std::vector<std::size_t>& workloads,
    double gain) {
  std::vector<core::InitialTransfer> out;
  for (std::size_t j = 0; j < lambda_d.size(); ++j) {
    const double excess = core::excess_load(lambda_d, workloads, j);
    if (excess <= 0.0) continue;
    std::size_t remaining = workloads[j];
    for (std::size_t i = 0; i < lambda_d.size(); ++i) {
      if (i == j) continue;
      const double fraction = core::partition_fraction(lambda_d, workloads, i, j);
      const auto count = static_cast<std::size_t>(std::llround(gain * fraction * excess));
      const std::size_t sendable = std::min(count, remaining);
      if (sendable == 0) continue;
      remaining -= sendable;
      out.push_back(core::InitialTransfer{j, i, sendable});
    }
  }
  return out;
}

/// EXPECT_EQ on every field of two directive lists.
inline void expect_same_directives(const std::vector<core::TransferDirective>& actual,
                                   const std::vector<core::TransferDirective>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t k = 0; k < actual.size(); ++k) {
    EXPECT_EQ(actual[k].from, expected[k].from) << "directive " << k;
    EXPECT_EQ(actual[k].to, expected[k].to) << "directive " << k;
    EXPECT_EQ(actual[k].count, expected[k].count) << "directive " << k;
  }
}

/// Runs both hooks: the same std::invalid_argument, or the same directives.
template <class Actual, class Expected>
void expect_same_outcome(Actual actual, Expected expected) {
  std::vector<core::TransferDirective> reference;
  try {
    reference = expected();
  } catch (const std::invalid_argument&) {
    EXPECT_THROW((void)actual(), std::invalid_argument);
    return;
  }
  expect_same_directives(actual(), reference);
}

}  // namespace lbsim::test
