#pragma once
/// \file
/// LBP-2's failure transfers LF(i, j) (paper eq. (8)) tabulated once per set
/// of node parameters. LF depends only on the rates a policy knows, never on
/// the queues, so the failure hooks of Lbp2Policy and PeriodicRebalancePolicy
/// (+LF) walk one precomputed row instead of evaluating eq. (8) for every
/// peer at every failure.

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/policy.hpp"

namespace lbsim::core {

class LfTable {
 public:
  /// A receiver i of node j's failure, with LF(i, j) > 0 tasks.
  struct Receiver {
    int node = 0;
    std::size_t count = 0;
  };

  /// Evaluates LF(i, j) for every pair with the four-argument
  /// lbp2_failure_transfer and keeps the nonzero entries in index order. The
  /// row of a node without a recovery law (lambda_r = 0) stays empty: LF is
  /// undefined there, and failure_transfers raises eq. (8)'s error if such a
  /// node fails holding tasks.
  explicit LfTable(std::vector<markov::NodeParams> params);

  /// True when `view` reports exactly the parameters the table was built
  /// from: node_count() plus one node_params call per node.
  [[nodiscard]] bool matches(const SystemView& view) const;

  [[nodiscard]] std::size_t node_count() const noexcept { return params_.size(); }
  /// lambda_d of every node, in index order.
  [[nodiscard]] const std::vector<double>& processing_rates() const noexcept { return rates_; }
  /// The receivers of node j's failure, in index order.
  [[nodiscard]] std::span<const Receiver> row(std::size_t j) const;

  /// LBP-2's directives at the failure of `node`: row(node) in order, each
  /// capped by what the node still holds. With `state_aware`, receivers the
  /// view believes down are skipped. View calls: one queue_length, plus one
  /// is_up per receiver visited in state-aware mode.
  [[nodiscard]] std::vector<TransferDirective> failure_transfers(int node,
                                                                 const SystemView& view,
                                                                 bool state_aware) const;

 private:
  std::vector<markov::NodeParams> params_;
  std::vector<double> rates_;
  double rate_sum_ = 0.0;
  std::vector<Receiver> receivers_;
  std::vector<std::size_t> row_begin_;  // row j = receivers_[row_begin_[j], row_begin_[j+1])
};

/// The LfTable a policy decides with. Copies share the tables built so far,
/// so a policy cloned per replication (or per worker) builds its table once:
/// a clone adopts the last table any copy built when its parameters match.
class LfCache {
 public:
  /// The table for `view`'s parameters. Re-checks the key (O(n) view calls)
  /// and adopts or builds a table on mismatch; policies call it in on_start.
  const LfTable& bind(const SystemView& view);

  /// The table in use, without re-checking the key (node_params is fixed for
  /// a scenario); binds first when no table is held yet or `node` lies
  /// beyond it. Policies call it in on_failure.
  const LfTable& current(const SystemView& view, int node);

 private:
  struct Shared {
    std::mutex mutex;
    std::shared_ptr<const LfTable> latest;
  };
  std::shared_ptr<const LfTable> table_;
  std::shared_ptr<Shared> shared_ = std::make_shared<Shared>();
};

}  // namespace lbsim::core
