#pragma once
/// \file
/// Configuration of the emulated wireless-LAN testbed (paper Section 3).
///
/// The real experiments ran matrix-multiplication on two laptops over IEEE
/// 802.11b/g; we reproduce the system at the level the paper itself models it:
/// task sizes are random (exponential), service time is size / node-speed
/// (hence Exp(lambda_d) per task, Fig. 1), data bundles suffer a per-task
/// exponential delay plus a small connection-setup shift (Fig. 2), and state
/// information is exchanged in small UDP packets that can be lost.
///
/// A TestbedConfig is the emulation's own vocabulary; to_scenario() turns it
/// into the mc::ScenarioConfig (ScenarioConfig::testbed set) that
/// mc::run_scenario — the one replication kernel — runs.

#include <cstdint>

#include "core/policy.hpp"
#include "env/environment.hpp"
#include "markov/params.hpp"
#include "net/channel.hpp"

namespace lbsim::testbed {

struct TestbedConfig {
  markov::MultiNodeParams params;        ///< calibrated rates (Fig. 1 fits)
  std::vector<std::size_t> workloads;    ///< initial tasks per node
  core::PolicyPtr policy;

  /// Communication layer.
  double transfer_setup_shift = 0.005;   ///< TCP setup; the Fig. 2 pdf shift (s)
  double state_broadcast_period = 1.0;   ///< UDP sync period (s)
  double state_latency = 1e-3;           ///< one-way state-packet latency (s)
  double state_loss_probability = 0.0;   ///< UDP loss (i.i.d.; 1 = blackout)

  /// Optional bursty k-state Markov channel for the state plane; when
  /// disabled (states == 0) the i.i.d. loss above applies unchanged.
  net::ChannelSpec channel;
  /// Optional environment CTMC: modulates every node's failure hazard and,
  /// when channel.env_coupled, floors the channel state during storms.
  env::EnvironmentSpec environment;

  /// When true, churn is injected (failure injector of Section 3).
  bool churn_enabled = true;
  /// Bitmask of nodes that start down (bit i); same addressing rule as
  /// mc::ScenarioConfig::initially_down.
  std::uint64_t initially_down = 0;

  [[nodiscard]] bool starts_down(std::size_t i) const noexcept {
    return i < 64 && ((initially_down >> i) & 1u) != 0;
  }

  [[nodiscard]] TestbedConfig clone() const;
};

/// Two-node testbed preset with the paper's measured parameters and the given
/// initial workloads; the policy is supplied by the caller.
[[nodiscard]] TestbedConfig paper_testbed(std::size_t m0, std::size_t m1,
                                          core::PolicyPtr policy);

/// Throws std::invalid_argument unless the kernel can run `config`.
void validate(const TestbedConfig& config);

}  // namespace lbsim::testbed

namespace lbsim::mc {
struct ScenarioConfig;
}

namespace lbsim::testbed {

/// Converts a registry-built mc::ScenarioConfig into a testbed config — the
/// single mapping, and the one check, every testbed entry point passes
/// through (`lbsim run`, `lbsim sweep`, `lbsim validate`, `lbsim perf`).
/// Consumes the scenario (moves its policy). Throws std::invalid_argument
/// naming the semantics the emulation does not honour — a periodic policy,
/// an explicit delay law, arrivals, a schedule, a non-complete topology —
/// rather than dropping them silently.
[[nodiscard]] TestbedConfig from_scenario(mc::ScenarioConfig&& scenario);

/// The kernel's form of `config`: ScenarioConfig::testbed set, the Erlang
/// per-task delay law with the set-up shift in delay_model, the state plane
/// in the exchange_* / state_channel fields. Clones the policy.
[[nodiscard]] mc::ScenarioConfig to_scenario(const TestbedConfig& config);

/// to_scenario(from_scenario(scenario)): the runnable emulation of a
/// registry-built scenario.
[[nodiscard]] mc::ScenarioConfig emulate(mc::ScenarioConfig&& scenario);

}  // namespace lbsim::testbed
