#include "testbed/experiment.hpp"

namespace lbsim::testbed {

mc::RunResult run_realization(const TestbedConfig& config, std::uint64_t seed,
                              std::uint64_t replication, mc::RunTrace* trace,
                              obs::PhaseProfile* profile, obs::Registry* metrics) {
  mc::RunControls controls;
  controls.profile = profile;
  controls.metrics = metrics;
  return mc::run_scenario(to_scenario(config), seed, replication, trace, controls);
}

ExperimentSummary run_experiment(const TestbedConfig& config, std::size_t realizations,
                                 std::uint64_t seed, unsigned threads,
                                 const mc::ObsSinks& sinks) {
  mc::McConfig mc_config;
  mc_config.replications = realizations;
  mc_config.seed = seed;
  mc_config.threads = threads;
  mc_config.collect_samples = true;
  mc_config.obs = sinks;
  return mc::run_monte_carlo(to_scenario(config), mc_config);
}

}  // namespace lbsim::testbed
