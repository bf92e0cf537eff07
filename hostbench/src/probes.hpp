#pragma once
/// \file
/// Benchmark-owned probes that attribute replication time to the program's
/// layers from outside: a timing decorator for the policy (core), a counting
/// SystemView it hands to the wrapped policy, a timing decorator for the
/// bundle-delay law (net), a process-wide allocation counter, and a bounded
/// in-memory span recorder written out as a Chrome trace at the end of a run.
///
/// Every probe only reads the monotonic clock and counts; none draws from an
/// RNG stream or changes what the wrapped object returns, so a replication
/// run through them is bit-identical to one run without them (pinned by
/// hostbench_test).

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "net/delay_model.hpp"

namespace hostbench {

namespace core = lbsim::core;
namespace markov = lbsim::markov;
namespace net = lbsim::net;
namespace stoch = lbsim::stoch;

using Clock = std::chrono::steady_clock;

/// Nanoseconds between two clock readings.
[[nodiscard]] inline double elapsed_ns(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::nano>(end - begin).count();
}

/// One timed interval. `parent` is the id of the span that caused it (0 for a
/// root); spans of one replication share `rep`.
struct Span {
  const char* name = "";
  double start_ns = 0.0;  ///< since the recorder's origin
  double dur_ns = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t rep = 0;
};

/// Keeps at most `capacity` spans in memory; later spans are counted as
/// dropped. Recording is switched on only for the first few replications of
/// a traced run, so the recorder's own cost stays off the timed passes.
class SpanRecorder {
 public:
  /// Reserves `capacity` spans up front, so recording never allocates while
  /// the allocation counter is on.
  explicit SpanRecorder(std::size_t capacity);

  void set_active(bool active) noexcept { active_ = active; }

  /// Starts replication `rep`: later spans hang off its span until the next
  /// call, and add_child with parent 0 records the replication span itself.
  std::uint64_t begin_rep(std::uint64_t rep) noexcept;
  void add(const char* name, Clock::time_point begin, Clock::time_point end);
  /// Adds a span with an explicit parent (used for derived child spans).
  void add_child(const char* name, double start_ns, double dur_ns, std::uint64_t parent);
  [[nodiscard]] double since_origin_ns(Clock::time_point t) const {
    return elapsed_ns(origin_, t);
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// Writes the spans as a Chrome trace-event JSON file (ph "X" events, one
  /// thread per replication); false if the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::size_t capacity_;
  bool active_ = false;
  std::uint64_t next_id_ = 1;
  std::uint64_t rep_span_ = 0;
  std::uint64_t rep_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

/// Which policy hook a call went to.
enum class Hook : std::size_t { kStart = 0, kFailure = 1, kRecovery = 2, kPeriodic = 3 };
inline constexpr std::size_t kHookCount = 4;

/// Accumulated by every TimedPolicy clone that shares it.
struct PolicyStats {
  std::array<std::uint64_t, kHookCount> calls{};
  std::array<double, kHookCount> ns{};
  std::uint64_t view_calls = 0;       ///< SystemView virtual calls made by the hooks
  std::uint64_t tasks_requested = 0;  ///< sum of directive counts the hooks returned
  SpanRecorder* spans = nullptr;      ///< optional; records each hook call

  [[nodiscard]] std::uint64_t total_calls() const noexcept;
  [[nodiscard]] double total_ns() const noexcept;
};

/// Delegates every SystemView virtual to `inner` and counts the calls.
class CountingView final : public core::SystemView {
 public:
  CountingView(const core::SystemView& inner, std::uint64_t& calls)
      : inner_(inner), calls_(calls) {}

  [[nodiscard]] std::size_t node_count() const override;
  [[nodiscard]] std::size_t queue_length(int node) const override;
  [[nodiscard]] bool is_up(int node) const override;
  [[nodiscard]] markov::NodeParams node_params(int node) const override;
  [[nodiscard]] double per_task_delay_mean() const override;
  [[nodiscard]] std::size_t neighbor_count(int node) const override;
  [[nodiscard]] int neighbor(int node, std::size_t k) const override;

 private:
  const core::SystemView& inner_;
  std::uint64_t& calls_;
};

/// Decorator around the scenario's policy: times each hook, hands the wrapped
/// policy a CountingView, and tallies the tasks its directives request.
class TimedPolicy final : public core::LoadBalancingPolicy {
 public:
  TimedPolicy(core::PolicyPtr inner, PolicyStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::vector<core::TransferDirective> on_start(
      const core::SystemView& view) override;
  [[nodiscard]] bool start_only() const noexcept override { return inner_->start_only(); }
  [[nodiscard]] std::vector<core::TransferDirective> on_failure(
      int node, const core::SystemView& view) override;
  [[nodiscard]] std::vector<core::TransferDirective> on_recovery(
      int node, const core::SystemView& view) override;
  [[nodiscard]] std::vector<core::TransferDirective> on_periodic(
      const core::SystemView& view) override;
  [[nodiscard]] bool needs_rng() const noexcept override { return inner_->needs_rng(); }
  void bind_rng(stoch::RngStream* rng) override { inner_->bind_rng(rng); }
  [[nodiscard]] core::PolicyPtr clone() const override;

 private:
  template <typename Call>
  std::vector<core::TransferDirective> timed(Hook hook, const core::SystemView& view,
                                             Call&& call);

  core::PolicyPtr inner_;
  PolicyStats& stats_;
};

/// Accumulated by every TimedDelay clone that shares it.
struct DelayStats {
  std::uint64_t samples = 0;
  double ns = 0.0;
  SpanRecorder* spans = nullptr;
};

/// Decorator around an explicit ExponentialBundleDelay(d) — the law the MC
/// engine uses when a scenario leaves delay_model null.
class TimedDelay final : public net::TransferDelayModel {
 public:
  TimedDelay(double per_task_mean, DelayStats& stats) : inner_(per_task_mean), stats_(stats) {}

  [[nodiscard]] double sample(std::size_t n_tasks, stoch::RngStream& rng) const override;
  [[nodiscard]] double mean(std::size_t n_tasks) const override { return inner_.mean(n_tasks); }
  [[nodiscard]] std::string describe() const override { return inner_.describe(); }
  [[nodiscard]] net::TransferDelayModelPtr clone() const override;

 private:
  net::ExponentialBundleDelay inner_;
  DelayStats& stats_;
};

/// Heap allocations made through the global operator new while counting was
/// on. The counting operator new is defined in alloc_count.cpp, which every
/// executable of this benchmark links.
struct AllocCounts {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};
void set_alloc_counting(bool on) noexcept;
[[nodiscard]] AllocCounts alloc_counts() noexcept;

}  // namespace hostbench
