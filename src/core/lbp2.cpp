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
  const LfTable& table = lf_.bind(view);
  std::vector<std::size_t> loads(table.node_count());
  for (std::size_t i = 0; i < loads.size(); ++i) {
    loads[i] = view.queue_length(static_cast<int>(i));
  }
  std::vector<TransferDirective> directives;
  for (const InitialTransfer& t :
       initial_balance_transfers(table.processing_rates(), loads, gain_)) {
    directives.push_back(TransferDirective{static_cast<int>(t.from),
                                           static_cast<int>(t.to), t.count});
  }
  return directives;
}

std::vector<TransferDirective> Lbp2Policy::on_failure(int node, const SystemView& view) {
  return lf_.current(view, node).failure_transfers(node, view, state_aware_);
}

PolicyPtr Lbp2Policy::clone() const { return std::make_unique<Lbp2Policy>(*this); }

}  // namespace lbsim::core
