#include "core/periodic.hpp"

#include <sstream>

#include "core/excess.hpp"
#include "util/error.hpp"

namespace lbsim::core {

PeriodicRebalancePolicy::PeriodicRebalancePolicy(double period, double gain,
                                                 bool compensate_failures)
    : period_(period), gain_(gain), compensate_failures_(compensate_failures) {
  LBSIM_REQUIRE(period > 0.0, "period=" << period);
  LBSIM_REQUIRE(gain >= 0.0 && gain <= 1.0 + 1e-9, "gain=" << gain);
}

std::string PeriodicRebalancePolicy::name() const {
  std::ostringstream os;
  os << "PeriodicRebalance(T=" << period_ << ", K=" << gain_
     << (compensate_failures_ ? ", +LF" : "") << ")";
  return os.str();
}

std::vector<TransferDirective> PeriodicRebalancePolicy::balance(
    const SystemView& view) const {
  const std::size_t n = view.node_count();
  std::vector<double> rates(n);
  std::vector<std::size_t> loads(n);
  for (std::size_t i = 0; i < n; ++i) {
    rates[i] = view.node_params(static_cast<int>(i)).lambda_d;
    loads[i] = view.queue_length(static_cast<int>(i));
  }
  std::vector<TransferDirective> directives;
  for (const InitialTransfer& t : initial_balance_transfers(rates, loads, gain_)) {
    // Do not strip a down node of its queue mid-outage; its backup acts only
    // at failure instants (LBP-2 semantics), not on the periodic tick.
    if (!view.is_up(static_cast<int>(t.from))) continue;
    directives.push_back(TransferDirective{static_cast<int>(t.from),
                                           static_cast<int>(t.to), t.count});
  }
  return directives;
}

std::vector<TransferDirective> PeriodicRebalancePolicy::on_start(const SystemView& view) {
  if (compensate_failures_) (void)lf_.bind(view);
  return balance(view);
}

std::vector<TransferDirective> PeriodicRebalancePolicy::on_periodic(const SystemView& view) {
  return balance(view);
}

std::vector<TransferDirective> PeriodicRebalancePolicy::on_failure(int node,
                                                                   const SystemView& view) {
  if (!compensate_failures_) return {};
  return lf_.current(view, node).failure_transfers(node, view, /*state_aware=*/false);
}

PolicyPtr PeriodicRebalancePolicy::clone() const {
  return std::make_unique<PeriodicRebalancePolicy>(*this);
}

}  // namespace lbsim::core
