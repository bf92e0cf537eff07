#include "core/lbp2.hpp"

#include <sstream>

#include "core/excess.hpp"
#include "util/error.hpp"

namespace lbsim::core {

Lbp2Policy::Lbp2Policy(double gain, bool state_aware)
    : gain_(gain), state_aware_(state_aware) {
  LBSIM_REQUIRE(gain >= 0.0 && gain <= 1.0 + 1e-9, "gain=" << gain);
}

std::string Lbp2Policy::name() const {
  std::ostringstream os;
  os << "LBP-2(K=" << gain_;
  if (state_aware_) os << ", aware";
  os << ")";
  return os.str();
}

std::vector<TransferDirective> Lbp2Policy::on_start(const SystemView& view) {
  const std::size_t n = view.node_count();
  std::vector<double> rates(n);
  std::vector<std::size_t> loads(n);
  for (std::size_t i = 0; i < n; ++i) {
    rates[i] = view.node_params(static_cast<int>(i)).lambda_d;
    loads[i] = view.queue_length(static_cast<int>(i));
  }
  std::vector<TransferDirective> directives;
  for (const InitialTransfer& t : initial_balance_transfers(rates, loads, gain_)) {
    directives.push_back(TransferDirective{static_cast<int>(t.from),
                                           static_cast<int>(t.to), t.count});
  }
  return directives;
}

std::vector<TransferDirective> Lbp2Policy::on_failure(int node, const SystemView& view) {
  const std::size_t n = view.node_count();
  LBSIM_REQUIRE(node >= 0 && static_cast<std::size_t>(node) < n, "node=" << node);
  std::vector<markov::NodeParams> nodes(n);
  for (std::size_t i = 0; i < n; ++i) nodes[i] = view.node_params(static_cast<int>(i));

  const double rate_sum = total_processing_rate(nodes);
  std::vector<TransferDirective> directives;
  std::size_t available = view.queue_length(node);
  for (std::size_t i = 0; i < n && available > 0; ++i) {
    if (static_cast<int>(i) == node) continue;
    // State-aware mode: don't ship to a peer believed down. The belief may be
    // stale (testbed state board) — wrong in either direction it costs gain.
    if (state_aware_ && !view.is_up(static_cast<int>(i))) continue;
    const std::size_t lf =
        lbp2_failure_transfer(nodes, i, static_cast<std::size_t>(node), rate_sum);
    if (lf == 0) continue;
    const std::size_t count = std::min(lf, available);
    available -= count;
    directives.push_back(TransferDirective{node, static_cast<int>(i), count});
  }
  return directives;
}

PolicyPtr Lbp2Policy::clone() const { return std::make_unique<Lbp2Policy>(*this); }

}  // namespace lbsim::core
