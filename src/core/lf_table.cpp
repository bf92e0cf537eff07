#include "core/lf_table.hpp"

#include <algorithm>

#include "core/excess.hpp"
#include "util/error.hpp"

namespace lbsim::core {

LfTable::LfTable(std::vector<markov::NodeParams> params) : params_(std::move(params)) {
  const std::size_t n = params_.size();
  rates_.reserve(n);
  for (const markov::NodeParams& node : params_) rates_.push_back(node.lambda_d);
  rate_sum_ = total_processing_rate(params_);
  row_begin_.reserve(n + 1);
  row_begin_.push_back(0);
  for (std::size_t j = 0; j < n; ++j) {
    if (params_[j].lambda_r > 0.0) {
      for (std::size_t i = 0; i < n; ++i) {
        if (i == j) continue;
        const std::size_t lf = lbp2_failure_transfer(params_, i, j, rate_sum_);
        if (lf > 0) receivers_.push_back(Receiver{static_cast<int>(i), lf});
      }
    }
    row_begin_.push_back(receivers_.size());
  }
}

bool LfTable::matches(const SystemView& view) const {
  if (view.node_count() != params_.size()) return false;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    const markov::NodeParams seen = view.node_params(static_cast<int>(i));
    const markov::NodeParams& known = params_[i];
    if (seen.lambda_d != known.lambda_d || seen.lambda_f != known.lambda_f ||
        seen.lambda_r != known.lambda_r) {
      return false;
    }
  }
  return true;
}

std::span<const LfTable::Receiver> LfTable::row(std::size_t j) const {
  LBSIM_REQUIRE(j < params_.size(), "node " << j);
  return {receivers_.data() + row_begin_[j], row_begin_[j + 1] - row_begin_[j]};
}

std::vector<TransferDirective> LfTable::failure_transfers(int node, const SystemView& view,
                                                          bool state_aware) const {
  LBSIM_REQUIRE(node >= 0 && static_cast<std::size_t>(node) < params_.size(),
                "node=" << node);
  const auto j = static_cast<std::size_t>(node);
  std::size_t available = view.queue_length(node);
  if (!(params_[j].lambda_r > 0.0)) {
    // No recovery law, so no row: the first receiver a per-peer scan would
    // reach raises eq. (8)'s "LF is undefined" error.
    for (std::size_t i = 0; i < params_.size() && available > 0; ++i) {
      if (i == j || (state_aware && !view.is_up(static_cast<int>(i)))) continue;
      (void)lbp2_failure_transfer(params_, i, j, rate_sum_);
    }
    return {};
  }
  std::vector<TransferDirective> directives;
  for (const Receiver& receiver : row(j)) {
    if (available == 0) break;
    // State-aware mode: don't ship to a peer believed down. The belief may be
    // stale (testbed state board) — wrong in either direction it costs gain.
    if (state_aware && !view.is_up(receiver.node)) continue;
    const std::size_t count = std::min(receiver.count, available);
    available -= count;
    directives.push_back(TransferDirective{node, receiver.node, count});
  }
  return directives;
}

const LfTable& LfCache::bind(const SystemView& view) {
  if (table_ != nullptr && table_->matches(view)) return *table_;
  const std::lock_guard<std::mutex> lock(shared_->mutex);
  if (shared_->latest == nullptr || !shared_->latest->matches(view)) {
    std::vector<markov::NodeParams> params(view.node_count());
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i] = view.node_params(static_cast<int>(i));
    }
    shared_->latest = std::make_shared<const LfTable>(std::move(params));
  }
  table_ = shared_->latest;
  return *table_;
}

const LfTable& LfCache::current(const SystemView& view, int node) {
  if (table_ == nullptr || node < 0 || static_cast<std::size_t>(node) >= table_->node_count()) {
    return bind(view);
  }
  return *table_;
}

}  // namespace lbsim::core
