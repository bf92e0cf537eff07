#pragma once
/// \file
/// The benchmark's correctness checks. Each is a pure function of results, so
/// the tests can feed it a deliberately broken input and watch it fire. None
/// depends on the seed.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mc/scenario.hpp"
#include "stochastic/stats.hpp"

namespace hostbench {

/// Task conservation: every initial task completed exactly once.
[[nodiscard]] bool tasks_conserved(const lbsim::mc::RunResult& run, std::uint64_t total_tasks);

/// Failure/recovery bookkeeping: recoveries <= failures <= recoveries + n
/// (each node is down at most once at the end of a run).
[[nodiscard]] bool churn_bookkeeping_ok(const lbsim::mc::RunResult& run, std::size_t nodes);

/// Bit-for-bit equality of every field of two replication results.
[[nodiscard]] bool bit_identical(const lbsim::mc::RunResult& a, const lbsim::mc::RunResult& b);

/// Bit-for-bit equality of the mean and variance of two folds.
[[nodiscard]] bool fold_matches(const lbsim::stoch::RunningStats& bench,
                                const lbsim::stoch::RunningStats& engine);

/// Distance of the folded mean from the exact mean, in standard errors.
struct Accuracy {
  double error = 0.0;  ///< mean - exact (s)
  double z = 0.0;      ///< error / std_error
  bool ok = false;     ///< |z| <= k_sigma
};
[[nodiscard]] Accuracy accuracy(const lbsim::stoch::RunningStats& fold, double exact,
                                double k_sigma = 4.0);

/// Tally of checks made in one run; keeps the first few failure messages.
class CheckTally {
 public:
  /// Records one check; returns `ok`.
  bool record(bool ok, std::string_view what);

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& messages() const noexcept { return messages_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

}  // namespace hostbench
