#pragma once
/// \file
/// The emulated end-to-end experiment: application layer (random-size
/// matrix-row tasks, size-proportional execution), communication layer
/// (Erlang per-task bundle delays with setup shift; periodic lossy UDP state
/// exchange), and LB/failure layer (policy + failure injector + backup agent).
/// This produces the "Experimental Result" columns of Tables 1-2 and the
/// queue realisations of Fig. 4.
///
/// Both entry points are adapters: they run to_scenario(config) through the
/// one replication kernel (mc::run_scenario) and its finite driver
/// (mc::run_monte_carlo).

#include <cstdint>

#include "mc/engine.hpp"
#include "mc/scenario.hpp"
#include "testbed/config.hpp"

namespace lbsim::testbed {

/// One emulated realisation on a fresh simulator; same result/trace types as
/// the abstract MC so that benches can tabulate them side by side. `profile`
/// (optional) accumulates the setup / event-loop wall-time split; `metrics`
/// (optional) receives the realisation's DES-core counters (des.*; see
/// mc::RunControls). Neither consumes RNG draws or changes any simulated
/// quantity.
[[nodiscard]] mc::RunResult run_realization(const TestbedConfig& config, std::uint64_t seed,
                                            std::uint64_t replication,
                                            mc::RunTrace* trace = nullptr,
                                            obs::PhaseProfile* profile = nullptr,
                                            obs::Registry* metrics = nullptr);

/// The fold of `realizations` runs: completion statistics with the sorted
/// samples, mean failures and tasks moved, the pooled per-decision peer
/// state age, and state packets lost per realization.
using ExperimentSummary = mc::McResult;

/// Runs `realizations` independent emulated experiments (the paper uses
/// 20-60 per configuration) on `threads` threads (0 = hardware concurrency).
/// `sinks` optionally attaches the observability layer: a merged structured
/// trace (replication order), a merged metrics registry (testbed.* names,
/// worker-id order plus driver-level gauges), and the aggregated phase
/// profile.
[[nodiscard]] ExperimentSummary run_experiment(const TestbedConfig& config,
                                               std::size_t realizations,
                                               std::uint64_t seed = 0xbed2006,
                                               unsigned threads = 0,
                                               const mc::ObsSinks& sinks = {});

}  // namespace lbsim::testbed
