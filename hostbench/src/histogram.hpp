#pragma once
/// \file
/// A fixed-size log-linear histogram of positive durations. The benchmark
/// keeps its per-call times in it instead of a list, so its own memory (and
/// with it peak_rss_mb) does not grow with the number of replications a fast
/// machine completes.

#include <array>
#include <cstdint>

namespace hostbench {

/// 64 buckets per power of two between 2^6 ns (64 ns) and 2^38 ns (about
/// 275 s), so a bucket is at most 1.6 % wide. Values outside that range land
/// in the first or last bucket. Quantiles interpolate linearly inside the
/// bucket that holds the requested rank, so they are within one bucket width
/// of the exact (type 7) quantile of the recorded values.
class LogHistogram {
 public:
  static constexpr int kMinExp = 6;
  static constexpr int kMaxExp = 38;
  static constexpr int kSubBuckets = 64;
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets;

  void add(double ns) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  /// The q-quantile (0 <= q <= 1) of the recorded values in ns; 0 if empty.
  [[nodiscard]] double quantile(double q) const noexcept;
  /// Recorded values strictly above the rank of the q-quantile.
  [[nodiscard]] std::uint64_t count_beyond(double q) const noexcept;

 private:
  std::array<std::uint32_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
};

}  // namespace hostbench
