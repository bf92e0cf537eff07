#include "core/excess.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace lbsim::core {
namespace {

void validate_inputs(const std::vector<double>& lambda_d,
                     const std::vector<std::size_t>& workloads) {
  LBSIM_REQUIRE(lambda_d.size() == workloads.size(),
                "rates/workloads size mismatch: " << lambda_d.size() << " vs "
                                                  << workloads.size());
  LBSIM_REQUIRE(lambda_d.size() >= 2, "need at least two nodes");
  for (const double rate : lambda_d) LBSIM_REQUIRE(rate > 0.0, "lambda_d=" << rate);
}

}  // namespace

double excess_load(const std::vector<double>& lambda_d,
                   const std::vector<std::size_t>& workloads, std::size_t j) {
  validate_inputs(lambda_d, workloads);
  LBSIM_REQUIRE(j < workloads.size(), "node " << j);
  double rate_sum = 0.0;
  double load_sum = 0.0;
  for (std::size_t k = 0; k < lambda_d.size(); ++k) {
    rate_sum += lambda_d[k];
    load_sum += static_cast<double>(workloads[k]);
  }
  const double fair_share = (lambda_d[j] / rate_sum) * load_sum;
  const double excess = static_cast<double>(workloads[j]) - fair_share;
  return excess > 0.0 ? excess : 0.0;
}

double partition_fraction(const std::vector<double>& lambda_d,
                          const std::vector<std::size_t>& workloads, std::size_t i,
                          std::size_t j) {
  validate_inputs(lambda_d, workloads);
  const std::size_t n = lambda_d.size();
  LBSIM_REQUIRE(i < n && j < n, "nodes " << i << "," << j);
  if (i == j) return 0.0;
  if (n == 2) return 1.0;
  double normalised_sum = 0.0;  // sum over l != j of m_l / lambda_dl
  for (std::size_t l = 0; l < n; ++l) {
    if (l == j) continue;
    normalised_sum += static_cast<double>(workloads[l]) / lambda_d[l];
  }
  const double mine = static_cast<double>(workloads[i]) / lambda_d[i];
  if (normalised_sum <= 0.0) {
    // All candidate receivers are empty: split the excess evenly.
    return 1.0 / static_cast<double>(n - 1);
  }
  return (1.0 - mine / normalised_sum) / static_cast<double>(n - 2);
}

std::size_t lbp2_failure_transfer(const std::vector<markov::NodeParams>& nodes,
                                  std::size_t i, std::size_t j) {
  return lbp2_failure_transfer(nodes, i, j, total_processing_rate(nodes));
}

double total_processing_rate(const std::vector<markov::NodeParams>& nodes) {
  double rate_sum = 0.0;
  for (const auto& node : nodes) rate_sum += node.lambda_d;
  return rate_sum;
}

std::size_t lbp2_failure_transfer(const std::vector<markov::NodeParams>& nodes,
                                  std::size_t i, std::size_t j, double rate_sum) {
  LBSIM_REQUIRE(nodes.size() >= 2, "need at least two nodes");
  LBSIM_REQUIRE(i < nodes.size() && j < nodes.size() && i != j, "nodes " << i << "," << j);
  const markov::NodeParams& failed = nodes[j];
  LBSIM_REQUIRE(failed.lambda_r > 0.0,
                "node " << j << " has no recovery law; LF is undefined");
  const double receiver_share = nodes[i].lambda_d / rate_sum;
  const double expected_backlog = failed.lambda_d / failed.lambda_r;
  const double amount =
      markov::availability(nodes[i]) * receiver_share * expected_backlog;
  return static_cast<std::size_t>(std::floor(amount));
}

std::vector<InitialTransfer> initial_balance_transfers(
    const std::vector<double>& lambda_d, const std::vector<std::size_t>& workloads,
    double gain) {
  // The composition of excess_load and partition_fraction, with every sum
  // they need taken once instead of once per (i, j) pair: the same
  // operations in the same order, so the result is bit-identical in O(n^2).
  validate_inputs(lambda_d, workloads);
  LBSIM_REQUIRE(gain >= 0.0 && gain <= 1.0 + 1e-9, "gain=" << gain);
  const std::size_t n = lambda_d.size();
  double rate_sum = 0.0;
  double load_sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    rate_sum += lambda_d[k];
    load_sum += static_cast<double>(workloads[k]);
  }
  std::vector<double> normalised(n);  // m_l / lambda_dl
  for (std::size_t l = 0; l < n; ++l) {
    normalised[l] = static_cast<double>(workloads[l]) / lambda_d[l];
  }
  std::vector<InitialTransfer> out;
  for (std::size_t j = 0; j < n; ++j) {
    const double fair_share = (lambda_d[j] / rate_sum) * load_sum;
    const double excess = static_cast<double>(workloads[j]) - fair_share;
    if (!(excess > 0.0)) continue;  // excess_load's clamp, NaN included
    // sum over l != j of m_l / lambda_dl, in index order (not "total minus
    // term", which rounds differently).
    double normalised_sum = 0.0;
    for (std::size_t l = 0; l < n; ++l) {
      if (l != j) normalised_sum += normalised[l];
    }
    std::size_t remaining = workloads[j];
    for (std::size_t i = 0; i < n; ++i) {
      if (i == j) continue;
      double fraction = 1.0;
      if (n > 2) {
        fraction = normalised_sum <= 0.0
                       ? 1.0 / static_cast<double>(n - 1)
                       : (1.0 - normalised[i] / normalised_sum) / static_cast<double>(n - 2);
      }
      const auto count = static_cast<std::size_t>(std::llround(gain * fraction * excess));
      const std::size_t sendable = std::min(count, remaining);
      if (sendable == 0) continue;
      remaining -= sendable;
      out.push_back(InitialTransfer{j, i, sendable});
    }
  }
  return out;
}

}  // namespace lbsim::core
