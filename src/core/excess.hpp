#pragma once
/// \file
/// The arithmetic of LBP-2's balancing actions (paper eqs. (6)-(8)) as pure,
/// separately-testable functions.

#include <cstddef>
#include <vector>

#include "markov/params.hpp"

namespace lbsim::core {

/// Excess load of node j: (m_j - (lambda_dj / sum_k lambda_dk) * sum_l m_l)^+ .
/// A node's fair share is proportional to its processing speed; only the part
/// above the fair share is eligible to leave.
[[nodiscard]] double excess_load(const std::vector<double>& lambda_d,
                                 const std::vector<std::size_t>& workloads, std::size_t j);

/// Partition fraction p_ij (paper eq. (6)): the share of node j's excess that
/// is sent to node i. For n = 2 the peer receives everything; for n >= 3
///   p_ij = 1/(n-2) * (1 - (m_i/lambda_di) / sum_{l != j} (m_l/lambda_dl)),
/// so nodes with smaller *normalised* load (drain time) receive more.
/// p_jj = 0; the fractions over i != j sum to 1.
[[nodiscard]] double partition_fraction(const std::vector<double>& lambda_d,
                                        const std::vector<std::size_t>& workloads,
                                        std::size_t i, std::size_t j);

/// LBP-2's on-failure transfer size LF_ij (paper eq. (8)): when node j fails,
/// its backup sends to node i
///   floor( availability_i * (lambda_di / sum_k lambda_dk) * lambda_dj / lambda_rj )
/// tasks — the expected backlog lambda_dj/lambda_rj accumulated during the
/// mean recovery time, split by processing speed and discounted by the
/// receiver's steady-state availability.
[[nodiscard]] std::size_t lbp2_failure_transfer(const std::vector<markov::NodeParams>& nodes,
                                                std::size_t i, std::size_t j);

/// LF_ij with its denominator sum_k lambda_dk given as `rate_sum`, which must
/// be total_processing_rate(nodes). A failure hook that scans every receiver
/// computes the O(n) sum once instead of once per receiver.
[[nodiscard]] std::size_t lbp2_failure_transfer(const std::vector<markov::NodeParams>& nodes,
                                                std::size_t i, std::size_t j, double rate_sum);

/// sum_k lambda_dk over `nodes`, summed in index order.
[[nodiscard]] double total_processing_rate(const std::vector<markov::NodeParams>& nodes);

/// All transfers LBP-2 issues at t = 0 for gain K: node j sends
/// round(K * p_ij * excess_j) tasks to each node i (paper eq. (7)), capped by
/// what j still holds. Entries with zero tasks are omitted. Bit-identical to
/// composing excess_load and partition_fraction pair by pair (the reference
/// definitions above), but O(n^2): the sums are taken once per call and the
/// l != j sum once per sender.
struct InitialTransfer {
  std::size_t from = 0;
  std::size_t to = 0;
  std::size_t count = 0;
};
[[nodiscard]] std::vector<InitialTransfer> initial_balance_transfers(
    const std::vector<double>& lambda_d, const std::vector<std::size_t>& workloads,
    double gain);

}  // namespace lbsim::core
