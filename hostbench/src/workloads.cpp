#include "workloads.hpp"

#include <stdexcept>

#include "cli/registry.hpp"
#include "markov/theory_oracle.hpp"
#include "mc/engine.hpp"
#include "mc/theory.hpp"
#include "testbed/experiment.hpp"

namespace hostbench {

core::PolicyPtr& Workload::policy() {
  return engine == Engine::kMc ? scenario.policy : testbed_config.policy;
}

Workload Workload::clone() const {
  Workload copy;
  copy.name = name;
  copy.engine = engine;
  copy.shards = shards;
  if (engine == Engine::kMc) {
    copy.scenario = scenario.clone();
  } else {
    copy.testbed_config = testbed_config.clone();
  }
  copy.nodes = nodes;
  copy.total_tasks = total_tasks;
  copy.rep_set = rep_set;
  return copy;
}

std::uint64_t Workload::streams_per_rep() const {
  const std::uint64_t n = nodes;
  if (engine == Engine::kTestbed) {
    // [0, n) sizes, [n, 2n) churn, 2n network, 2n+1 state plane, then env.
    return 2 * n + 2 + (testbed_config.environment.enabled() ? 1 : 0);
  }
  // [0, n) service, [n, 2n) churn, 2n network, then env/arrival/policy.
  return 2 * n + 1 + (scenario.environment.enabled() ? 1 : 0) +
         (scenario.arrivals.active() ? 1 : 0) + (scenario.policy->needs_rng() ? 1 : 0);
}

Workload build_workload(const std::string& name) {
  std::string family;
  lbsim::cli::RawConfig raw;
  std::size_t shards = 1;
  std::uint64_t rep_set = 0;
  if (name == "paper2") {
    family = "paper-two-node";
    rep_set = 4096;
  } else if (name == "churn256") {
    family = "many-node-churn";
    raw.set("nodes", "256");
    raw.set("policy", "lbp2");
    shards = 8;
    rep_set = 16;
  } else if (name == "lossy_testbed") {
    family = "lossy-exchange";
    rep_set = 2048;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (known: paper2, churn256, lossy_testbed)");
  }
  const lbsim::cli::ScenarioSpec& spec = lbsim::cli::find_scenario(family);
  Workload w;
  w.name = name;
  w.shards = shards;
  w.rep_set = rep_set;
  mc::ScenarioConfig scenario = spec.build(spec.schema.resolve(raw));
  w.nodes = scenario.params.nodes.size();
  for (const std::size_t m : scenario.workloads) w.total_tasks += m;
  if (spec.testbed) {
    w.engine = Engine::kTestbed;
    w.testbed_config = testbed::from_scenario(std::move(scenario));
  } else {
    w.engine = Engine::kMc;
    w.scenario = std::move(scenario);
  }
  return w;
}

Runner::Runner(const Workload& workload) : workload_(workload) {
  sim_.set_shard_count(workload.shards);
}

namespace {

/// The per-replication registry updates the engines make (mc/engine.cpp,
/// testbed/experiment.cpp), so a traced replication pays what a --metrics
/// user pays.
void fold_run_metrics(obs::Registry& metrics, const mc::RunResult& run, Engine engine) {
  const bool tb = engine == Engine::kTestbed;
  metrics.counter(tb ? "testbed.realizations" : "mc.replications").add(1);
  metrics.counter(tb ? "testbed.failures" : "mc.failures").add(run.failures);
  metrics.counter(tb ? "testbed.recoveries" : "mc.recoveries").add(run.recoveries);
  metrics.counter(tb ? "testbed.tasks_completed" : "mc.tasks_completed")
      .add(run.tasks_completed);
  metrics.counter("net.tasks_moved").add(run.tasks_moved);
  metrics.counter("net.bundles_sent").add(run.bundles_sent);
  if (tb) {
    metrics.counter("net.state_packets_lost").add(run.state_packets_lost);
  } else {
    metrics.counter("mc.tasks_arrived").add(run.tasks_arrived);
    metrics.counter("env.transitions").add(run.env_transitions);
  }
  metrics.histogram(tb ? "testbed.completion_time" : "mc.completion_time")
      .observe(run.completion_time);
}

}  // namespace

RepOutcome Runner::run(std::uint64_t seed, std::uint64_t rep, const RepSinks& sinks) {
  RepOutcome out;
  if (workload_.engine == Engine::kMc) {
    const des::EventQueue::Stats before = sim_.queue_stats();
    mc::RunControls controls;
    controls.profile = sinks.profile;
    out.result = mc::run_scenario(workload_.scenario, seed, rep, sinks.trace, sim_,
                                  mc::SteadyProbe{}, controls);
    const des::EventQueue::Stats& after = sim_.queue_stats();
    out.events = after.popped - before.popped;
    if (sinks.metrics != nullptr) {
      obs::Registry& m = *sinks.metrics;
      m.counter("des.events.scheduled").add(after.scheduled - before.scheduled);
      m.counter("des.events.popped").add(after.popped - before.popped);
      m.counter("des.events.cancelled").add(after.cancelled - before.cancelled);
      m.counter("des.slab.compactions").add(after.compactions - before.compactions);
      m.gauge("des.queue.max_depth").max_of(static_cast<double>(after.max_depth));
      m.gauge("des.queue.max_shard_depth").max_of(static_cast<double>(after.max_shard_depth));
    }
  } else {
    std::uint64_t popped_before = 0;
    if (sinks.metrics != nullptr) {
      popped_before = sinks.metrics->counter("des.events.popped").value();
    }
    out.result = testbed::run_realization(workload_.testbed_config, seed, rep, sinks.trace,
                                          sinks.profile, sinks.metrics);
    if (sinks.metrics != nullptr) {
      out.events = sinks.metrics->counter("des.events.popped").value() - popped_before;
    }
  }
  if (sinks.metrics != nullptr) fold_run_metrics(*sinks.metrics, out.result, workload_.engine);
  return out;
}

stoch::RunningStats engine_fold(const Workload& workload, std::uint64_t seed, std::size_t reps) {
  if (workload.engine == Engine::kMc) {
    mc::McConfig config;
    config.replications = reps;
    config.seed = seed;
    config.threads = 1;
    config.shards = workload.shards;
    return mc::run_monte_carlo(workload.scenario, config).completion;
  }
  return testbed::run_experiment(workload.testbed_config, reps, seed, /*threads=*/1).completion;
}

std::optional<double> exact_mean(const Workload& workload) {
  if (workload.engine != Engine::kMc) return std::nullopt;
  const mc::TheoryMapping mapping = mc::map_to_theory(workload.scenario);
  if (!mapping.ok) return std::nullopt;
  const markov::TheoryPrediction prediction = markov::TheoryOracle{}.mean(mapping.query);
  if (!prediction.applicable) return std::nullopt;
  return prediction.mean;
}

}  // namespace hostbench
