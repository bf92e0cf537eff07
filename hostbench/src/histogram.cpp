#include "histogram.hpp"

#include <algorithm>
#include <cmath>

namespace hostbench {

namespace {

/// Lower edge of bucket b in ns.
double bucket_low(std::size_t b) {
  const int exp = LogHistogram::kMinExp + static_cast<int>(b / LogHistogram::kSubBuckets);
  const double sub = static_cast<double>(b % LogHistogram::kSubBuckets);
  return std::ldexp(1.0 + sub / LogHistogram::kSubBuckets, exp);
}

}  // namespace

void LogHistogram::add(double ns) noexcept {
  std::size_t b = 0;
  if (ns >= std::ldexp(1.0, kMaxExp)) {
    b = kBuckets - 1;
  } else if (ns >= std::ldexp(1.0, kMinExp)) {
    int exp = 0;
    const double mantissa = std::frexp(ns, &exp);  // ns = mantissa * 2^exp, in [0.5, 1)
    const auto sub = static_cast<std::size_t>((2.0 * mantissa - 1.0) * kSubBuckets);
    b = static_cast<std::size_t>(exp - 1 - kMinExp) * kSubBuckets +
        std::min<std::size_t>(sub, kSubBuckets - 1);
  }
  ++buckets_[b];
  ++count_;
}

double LogHistogram::quantile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_ - 1);
  std::uint64_t before = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const std::uint64_t n = buckets_[b];
    if (n == 0 || static_cast<double>(before + n) <= rank) {
      before += n;
      continue;
    }
    // The bucket's values are taken as spread evenly across it.
    const double within = (rank - static_cast<double>(before) + 0.5) / static_cast<double>(n);
    const double low = bucket_low(b);
    return low + within * (bucket_low(b + 1) - low);
  }
  return bucket_low(kBuckets);
}

std::uint64_t LogHistogram::count_beyond(double q) const noexcept {
  if (count_ == 0) return 0;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_ - 1);
  return count_ - 1 - static_cast<std::uint64_t>(std::floor(rank));
}

}  // namespace hostbench
