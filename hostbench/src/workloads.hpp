#pragma once
/// \file
/// The benchmark's workloads and the one-replication-at-a-time drivers. A
/// workload is built exactly as `lbsim run` builds it (cli registry:
/// find_scenario -> schema.resolve -> build, plus testbed::from_scenario for
/// testbed families); the program then receives only that config, the master
/// seed and replication indices.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mc/scenario.hpp"
#include "obs/profile.hpp"
#include "obs/registry.hpp"
#include "sim/simulator.hpp"
#include "stochastic/stats.hpp"
#include "testbed/config.hpp"

namespace hostbench {

namespace core = lbsim::core;
namespace des = lbsim::des;
namespace markov = lbsim::markov;
namespace mc = lbsim::mc;
namespace obs = lbsim::obs;
namespace stoch = lbsim::stoch;
namespace testbed = lbsim::testbed;

enum class Engine { kMc, kTestbed };

struct Workload {
  std::string name;
  Engine engine = Engine::kMc;
  std::size_t shards = 1;          ///< event-queue shards (mc engine)
  mc::ScenarioConfig scenario;            ///< what run_scenario receives (kMc)
  testbed::TestbedConfig testbed_config;  ///< what run_realization receives (kTestbed)
  std::size_t nodes = 0;
  std::uint64_t total_tasks = 0;   ///< sum of the initial workloads
  /// The timed loop cycles through replications 1..rep_set, so the engine
  /// fold that checks them costs a fixed, small share of a run however long
  /// the run is.
  std::uint64_t rep_set = 0;

  /// The policy slot the engine reads (for wrapping it in a probe).
  [[nodiscard]] core::PolicyPtr& policy();
  /// Deep copy (clones policy and delay model).
  [[nodiscard]] Workload clone() const;
  /// RNG streams one replication constructs. The engines' stream layouts
  /// (mc/scenario.cpp, testbed/experiment.cpp) are mirrored here, not
  /// measured: stoch::RngStream offers no seam to count constructions from
  /// outside, so a change to those layouts does not show in this figure.
  [[nodiscard]] std::uint64_t streams_per_rep() const;
};

/// Builds paper2, churn256 or lossy_testbed from the registry; throws
/// std::invalid_argument for any other name.
[[nodiscard]] Workload build_workload(const std::string& name);

/// Optional sinks for one replication. `metrics` receives what the engines
/// fold per replication (result counters, DES queue counters).
struct RepSinks {
  mc::RunTrace* trace = nullptr;
  obs::PhaseProfile* profile = nullptr;
  obs::Registry* metrics = nullptr;
};

struct RepOutcome {
  mc::RunResult result;
  /// DES events popped; known for the mc engine always (the benchmark owns
  /// its simulator) and for the testbed when `metrics` is attached.
  std::optional<std::uint64_t> events;
};

/// Drives replications one at a time through the public per-replication
/// entry points: mc::run_scenario with one reused des::Simulator, or
/// testbed::run_realization. `workload` must outlive the runner.
class Runner {
 public:
  explicit Runner(const Workload& workload);

  [[nodiscard]] RepOutcome run(std::uint64_t seed, std::uint64_t rep, const RepSinks& sinks = {});

 private:
  const Workload& workload_;
  des::Simulator sim_;
};

/// The engine's own fold at one thread over replications [0, reps):
/// mc::run_monte_carlo or testbed::run_experiment.
[[nodiscard]] stoch::RunningStats engine_fold(const Workload& workload, std::uint64_t seed,
                                              std::size_t reps);

/// Exact mean completion time from the theory oracle, when the workload maps
/// onto a tractable solver (paper2).
[[nodiscard]] std::optional<double> exact_mean(const Workload& workload);

}  // namespace hostbench
