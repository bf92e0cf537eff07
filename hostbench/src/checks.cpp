#include "checks.hpp"

#include <bit>
#include <cmath>

namespace hostbench {

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_stats(const lbsim::stoch::RunningStats& a, const lbsim::stoch::RunningStats& b) {
  return a.count() == b.count() && same_bits(a.mean(), b.mean()) &&
         same_bits(a.variance(), b.variance()) && same_bits(a.min(), b.min()) &&
         same_bits(a.max(), b.max());
}

}  // namespace

bool tasks_conserved(const lbsim::mc::RunResult& run, std::uint64_t total_tasks) {
  return run.tasks_completed == total_tasks;
}

bool churn_bookkeeping_ok(const lbsim::mc::RunResult& run, std::size_t nodes) {
  return run.recoveries <= run.failures && run.failures <= run.recoveries + nodes;
}

bool bit_identical(const lbsim::mc::RunResult& a, const lbsim::mc::RunResult& b) {
  return same_bits(a.completion_time, b.completion_time) && a.failures == b.failures &&
         a.recoveries == b.recoveries && a.bundles_sent == b.bundles_sent &&
         a.tasks_moved == b.tasks_moved && a.tasks_completed == b.tasks_completed &&
         a.tasks_arrived == b.tasks_arrived && a.env_transitions == b.env_transitions &&
         a.state_packets_lost == b.state_packets_lost && same_stats(a.sojourn, b.sojourn) &&
         same_stats(a.queue_delay, b.queue_delay) && same_stats(a.state_age, b.state_age);
}

bool fold_matches(const lbsim::stoch::RunningStats& bench,
                  const lbsim::stoch::RunningStats& engine) {
  return bench.count() == engine.count() && same_bits(bench.mean(), engine.mean()) &&
         same_bits(bench.variance(), engine.variance());
}

Accuracy accuracy(const lbsim::stoch::RunningStats& fold, double exact, double k_sigma) {
  Accuracy a;
  a.error = fold.mean() - exact;
  const double se = fold.std_error();
  a.z = se > 0.0 ? a.error / se : (a.error == 0.0 ? 0.0 : INFINITY);
  a.ok = std::isfinite(a.z) && std::fabs(a.z) <= k_sigma;
  return a;
}

bool CheckTally::record(bool ok, std::string_view what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (messages_.size() < 16) messages_.emplace_back(what);
  }
  return ok;
}

}  // namespace hostbench
