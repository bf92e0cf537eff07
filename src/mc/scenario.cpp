#include "mc/scenario.hpp"

#include <chrono>
#include <cmath>
#include <functional>
#include <optional>

#include "app/workload.hpp"
#include "node/compute_element.hpp"
#include "node/failure_process.hpp"
#include "net/link.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "testbed/state_exchange.hpp"
#include "util/error.hpp"

namespace lbsim::mc {
namespace {

/// SystemView over the live CEs' structure-of-arrays hot state: queue lengths
/// and up flags are read from two packed arrays the CEs mirror on every
/// transition, so a policy scan over n nodes walks contiguous memory instead
/// of chasing one heap allocation per node. When a (non-complete) topology is
/// active the view restricts each node's visible peers to its current
/// adjacency; the pointer is swapped on environment transitions under edge
/// churn.
class LiveView final : public core::SystemView {
 public:
  LiveView(const markov::MultiNodeParams& params,
           const std::vector<std::uint32_t>& queue_len, const std::vector<std::uint8_t>& up)
      : params_(params), queue_len_(queue_len), up_(up) {}

  [[nodiscard]] std::size_t node_count() const override { return queue_len_.size(); }
  [[nodiscard]] std::size_t queue_length(int n) const override {
    return queue_len_.at(static_cast<std::size_t>(n));
  }
  [[nodiscard]] bool is_up(int n) const override {
    return up_.at(static_cast<std::size_t>(n)) != 0;
  }
  [[nodiscard]] markov::NodeParams node_params(int n) const override {
    return params_.nodes.at(static_cast<std::size_t>(n));
  }
  [[nodiscard]] double per_task_delay_mean() const override {
    return params_.per_task_delay_mean;
  }
  [[nodiscard]] std::size_t neighbor_count(int n) const override {
    if (topology_ == nullptr) return core::SystemView::neighbor_count(n);
    return topology_->degree(static_cast<std::size_t>(n));
  }
  [[nodiscard]] int neighbor(int n, std::size_t k) const override {
    if (topology_ == nullptr) return core::SystemView::neighbor(n, k);
    return static_cast<int>(topology_->neighbor(static_cast<std::size_t>(n), k));
  }

  void set_topology(const net::Topology* topology) noexcept { topology_ = topology; }
  [[nodiscard]] const net::Topology* topology() const noexcept { return topology_; }

 private:
  const markov::MultiNodeParams& params_;
  const std::vector<std::uint32_t>& queue_len_;
  const std::vector<std::uint8_t>& up_;
  const net::Topology* topology_ = nullptr;  // null = complete (historical path)
};

void validate_config(const ScenarioConfig& config, bool allow_unbounded) {
  markov::validate(config.params);
  const std::size_t n = config.params.nodes.size();
  LBSIM_REQUIRE(n >= 2, "scenario needs >= 2 nodes");
  LBSIM_REQUIRE(!config.arrivals.unbounded || allow_unbounded,
                "unbounded arrival streams leave completion time undefined; they are "
                "admitted only through the steady-state engine (mc::run_steady)");
  LBSIM_REQUIRE(config.workloads.size() == n,
                "workloads has " << config.workloads.size() << " entries for " << n
                                 << " nodes");
  LBSIM_REQUIRE(config.policy != nullptr, "scenario needs a policy");
  LBSIM_REQUIRE(n >= 64 || config.initially_down < (std::uint64_t{1} << n),
                "initially_down mask");
  env::validate(config.environment);
  env::validate(config.arrivals, n,
                config.environment.enabled() ? &config.environment : nullptr);
  env::validate(config.schedule, n);
  LBSIM_REQUIRE(!config.topology.dynamic() ||
                    (!config.topology.complete() && config.environment.enabled()),
                "topology edge churn (churn_drop > 0) needs a non-complete topology and "
                "a configured environment CTMC to drive it");
  for (std::size_t i = 0; i < n; ++i) {
    LBSIM_REQUIRE(!config.schedule.scheduled(i) || !config.starts_down(i),
                  "node " << i << " has both a schedule clause and an initially_down bit; "
                             "use down@0-... in the schedule instead");
    LBSIM_REQUIRE(!config.starts_down(i) || config.params.nodes[i].lambda_r > 0.0,
                  "initially-down node " << i << " cannot recover (lambda_r == 0)");
  }
  if (config.testbed) {
    LBSIM_REQUIRE(config.rebalance_period == 0.0 && !config.arrivals.active() &&
                      config.schedule.empty() && config.topology.complete(),
                  "the testbed emulation runs no periodic timer, arrival stream, schedule "
                  "or non-complete topology");
    LBSIM_REQUIRE(config.exchange_period > 0.0, "exchange_period=" << config.exchange_period);
    LBSIM_REQUIRE(config.exchange_latency >= 0.0,
                  "exchange_latency=" << config.exchange_latency);
    // Loss 1.0 is the legitimate total-blackout boundary; only > 1 is an error.
    LBSIM_REQUIRE(config.exchange_loss >= 0.0 && config.exchange_loss <= 1.0,
                  "exchange_loss=" << config.exchange_loss);
    net::validate(config.state_channel);
    LBSIM_REQUIRE(!config.state_channel.env_coupled || config.environment.enabled(),
                  "channel env coupling needs a configured environment");
  }
}

/// Completion bookkeeping shared by all per-node handlers: the handlers
/// capture one pointer to this, so their std::functions stay inside the
/// small-object buffer (no heap allocation per node per replication). Every
/// completion carries its per-task record (arrival / first service start), so
/// the tracker also accumulates the run's latency observations.
struct CompletionTracker {
  des::Simulator* sim = nullptr;
  RunResult* result = nullptr;
  std::size_t remaining = 0;
  /// False while an arrival stream still owes epochs: the run is complete
  /// only once everything injected so far is processed AND nothing more will
  /// arrive.
  bool injection_done = true;
  bool done = false;
  double completion_time = 0.0;
  /// Steady-state mode: stop at this many completions instead of draining.
  std::size_t target_completions = 0;
  std::uint64_t completed = 0;
  std::vector<double>* sojourn_log = nullptr;

  void maybe_finish() {
    if (remaining == 0 && injection_done) {
      done = true;
      completion_time = sim->now();
    }
  }
  void on_complete(const node::Task& task) {
    LBSIM_CHECK(remaining > 0, "completed more tasks than injected");
    --remaining;
    ++completed;
    const double now = sim->now();
    const double sojourn = now - task.arrival_time;
    result->sojourn.add(sojourn);
    if (task.first_service_start >= 0.0) {
      result->queue_delay.add(task.first_service_start - task.arrival_time);
    }
    if (sojourn_log != nullptr) sojourn_log->push_back(sojourn);
    if (target_completions > 0 && completed >= target_completions) {
      done = true;
      completion_time = now;
      return;
    }
    maybe_finish();
  }
};

/// The state an env-coupled channel is floored to in environment state
/// `env_state`: environment states map linearly onto channel states, so the
/// worst storm jams the state plane hardest.
std::size_t channel_floor(const ScenarioConfig& config, std::size_t env_state) {
  const std::size_t k_env = config.environment.states;
  const std::size_t k_ch = config.state_channel.states;
  const double frac =
      k_env > 1 ? static_cast<double>(env_state) / static_cast<double>(k_env - 1) : 0.0;
  return static_cast<std::size_t>(std::lround(frac * static_cast<double>(k_ch - 1)));
}

/// Adds the queue activity between two snapshots of a simulator's cumulative
/// stats. The high-water marks are cumulative too, so their gauges keep the
/// running maximum.
void add_queue_metrics(obs::Registry& metrics, const des::EventQueue::Stats& before,
                       const des::EventQueue::Stats& after) {
  metrics.counter("des.events.scheduled").add(after.scheduled - before.scheduled);
  metrics.counter("des.events.popped").add(after.popped - before.popped);
  metrics.counter("des.events.cancelled").add(after.cancelled - before.cancelled);
  metrics.counter("des.slab.compactions").add(after.compactions - before.compactions);
  metrics.gauge("des.queue.max_depth").max_of(static_cast<double>(after.max_depth));
  metrics.gauge("des.queue.max_shard_depth")
      .max_of(static_cast<double>(after.max_shard_depth));
}

}  // namespace

void validate(const ScenarioConfig& config) {
  validate_config(config, /*allow_unbounded=*/false);
}

ScenarioConfig ScenarioConfig::clone() const {
  ScenarioConfig copy;
  copy.params = params;
  copy.workloads = workloads;
  copy.policy = policy ? policy->clone() : nullptr;
  copy.delay_model = delay_model ? delay_model->clone() : nullptr;
  copy.churn_enabled = churn_enabled;
  copy.initially_down = initially_down;
  copy.rebalance_period = rebalance_period;
  copy.environment = environment;
  copy.arrivals = arrivals;
  copy.schedule = schedule;
  copy.steady = steady;
  copy.topology = topology;
  copy.testbed = testbed;
  copy.exchange_period = exchange_period;
  copy.exchange_latency = exchange_latency;
  copy.exchange_loss = exchange_loss;
  copy.state_channel = state_channel;
  return copy;
}

ScenarioConfig make_two_node_scenario(const markov::TwoNodeParams& params, std::size_t m0,
                                      std::size_t m1, core::PolicyPtr policy) {
  ScenarioConfig config;
  config.params.nodes = {params.nodes[0], params.nodes[1]};
  config.params.per_task_delay_mean = params.per_task_delay_mean;
  config.workloads = {m0, m1};
  config.policy = std::move(policy);
  return config;
}

RunResult run_scenario(const ScenarioConfig& config, std::uint64_t seed,
                       std::uint64_t replication, RunTrace* trace,
                       const RunControls& controls) {
  des::Simulator sim;
  return run_scenario(config, seed, replication, trace, sim, SteadyProbe{}, controls);
}

RunResult run_scenario(const ScenarioConfig& config, std::uint64_t seed,
                       std::uint64_t replication, RunTrace* trace, des::Simulator& sim) {
  return run_scenario(config, seed, replication, trace, sim, SteadyProbe{});
}

RunResult run_scenario(const ScenarioConfig& config, std::uint64_t seed,
                       std::uint64_t replication, RunTrace* trace, des::Simulator& sim,
                       const SteadyProbe& probe) {
  return run_scenario(config, seed, replication, trace, sim, probe, RunControls{});
}

RunResult run_scenario(const ScenarioConfig& config, std::uint64_t seed,
                       std::uint64_t replication, RunTrace* trace, des::Simulator& sim,
                       const SteadyProbe& probe, const RunControls& controls) {
  // Phase profiling reads the monotonic clock only (never the RNG streams):
  // everything before the event loop is "setup", the loop itself is "loop".
  using ProfileClock = std::chrono::steady_clock;
  ProfileClock::time_point profile_begin{};
  if (controls.profile != nullptr) profile_begin = ProfileClock::now();

  validate_config(config, /*allow_unbounded=*/probe.target_completions > 0);
  const std::size_t n = config.params.nodes.size();
  const bool on_testbed = config.testbed;
  sim.reset();  // recycles the pooled event slab when the caller reuses `sim`
  const des::EventQueue::Stats queue_before = sim.queue_stats();

  // Disjoint, deterministic RNG streams per (replication, role, node):
  // results do not depend on thread scheduling. Stream ids keep the
  // historical layout ([0, n) service, [n, 2n) churn, 2n network, and the
  // testbed's state plane at 2n+1); the environment, arrival and policy
  // streams follow, each appended only when configured, so scenarios without
  // them stay bit-for-bit identical to earlier releases.
  const bool has_environment = config.environment.enabled();
  const bool has_arrivals = config.arrivals.active();
  const bool has_policy_rng = config.policy->needs_rng();
  const std::uint64_t streams_per_run = 2 * static_cast<std::uint64_t>(n) + 1 +
                                        (on_testbed ? 1 : 0) + (has_environment ? 1 : 0) +
                                        (has_arrivals ? 1 : 0) + (has_policy_rng ? 1 : 0);
  const std::uint64_t base = replication * streams_per_run;
  // One backing vector: entries [0, n) are the service streams, [n, 2n) the
  // churn streams (same stream ids as always).
  std::vector<stoch::RngStream> rngs;
  rngs.reserve(2 * n);
  for (std::size_t i = 0; i < 2 * n; ++i) rngs.emplace_back(seed, base + i);
  stoch::RngStream net_rng(seed, base + 2 * n);
  // Stream construction is not free (long-jump decorrelation), so the
  // optional streams exist only when their process does, each in the next
  // free slot.
  std::uint64_t next_stream = base + 2 * n + 1;
  std::optional<stoch::RngStream> state_rng;
  if (on_testbed) state_rng.emplace(seed, next_stream++);
  std::optional<stoch::RngStream> env_rng;
  if (has_environment) env_rng.emplace(seed, next_stream++);
  std::optional<stoch::RngStream> arrival_rng;
  if (has_arrivals) arrival_rng.emplace(seed, next_stream++);
  // Randomised policies (RandomProbePolicy) draw from their own appended
  // stream, re-bound every replication; deterministic policies leave the
  // stream layout — and therefore every historical result — untouched.
  std::optional<stoch::RngStream> policy_rng;
  if (has_policy_rng) {
    policy_rng.emplace(seed, next_stream++);
    config.policy->bind_rng(&*policy_rng);
  }
  if (controls.antithetic) {
    // The twin run: identical stream ids and draw counts, every
    // uniform01-derived variate mirrored. Applied uniformly so the coupling
    // covers all of the replication's randomness.
    for (stoch::RngStream& rng : rngs) rng.set_antithetic(true);
    net_rng.set_antithetic(true);
    if (state_rng) state_rng->set_antithetic(true);
    if (env_rng) env_rng->set_antithetic(true);
    if (arrival_rng) arrival_rng->set_antithetic(true);
    if (policy_rng) policy_rng->set_antithetic(true);
  }

  // --- nodes (service law: the model draws Exp(lambda_d) per task; the
  //     testbed serves a task of size s in s / lambda_d) ---
  std::vector<std::unique_ptr<node::ComputeElement>> ces;
  ces.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double rate = config.params.nodes[i].lambda_d;
    ces.push_back(std::make_unique<node::ComputeElement>(
        sim, static_cast<int>(i),
        on_testbed ? app::calibrated_service(rate) : app::exponential_service(rate), rngs[i]));
  }

  // --- structure-of-arrays hot state: the per-node queue lengths and up
  //     flags every policy scan touches live in two packed arrays owned here
  //     and mirrored by each CE on every transition (LiveView reads these) ---
  std::vector<std::uint32_t> hot_queue_len(n, 0);
  std::vector<std::uint8_t> hot_up(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    ces[i]->bind_hot_cells(&hot_queue_len[i], &hot_up[i]);
  }

  if (trace != nullptr) {
    if (trace->record_queues) {
      trace->queue_lengths.assign(n, des::TimeSeries{});
      for (std::size_t i = 0; i < n; ++i) {
        ces[i]->set_queue_trace(&trace->queue_lengths[i]);
      }
    }
    for (std::size_t i = 0; i < n; ++i) ces[i]->set_event_trace(&trace->events);
  }

  // --- links (full mesh, built lazily: an n-node replication only pays for
  //     the directed pairs the policy actually uses, which matters once
  //     n*n outgrows the handful of transfers a run performs). The testbed's
  //     net::Network owns its links, built with the same delay law, next to
  //     the UDP state plane whose channel also scales every data delay ---
  const net::ExponentialBundleDelay default_delay(config.params.per_task_delay_mean);
  const net::TransferDelayModel& delay_proto =
      config.delay_model ? *config.delay_model
                         : static_cast<const net::TransferDelayModel&>(default_delay);
  std::optional<net::Network> network;
  if (on_testbed) {
    net::Network::Config net_config;
    net_config.data_delay = delay_proto.clone();
    net_config.state_latency = config.exchange_latency;
    net_config.state_loss_probability = config.exchange_loss;
    net_config.channel = config.state_channel;
    network.emplace(sim, n, std::move(net_config), net_rng, *state_rng);
    if (trace != nullptr) network->set_event_trace(&trace->events);
  }
  std::vector<std::unique_ptr<net::Link>> links(network ? 0 : n * n);
  const auto link_for = [&](std::size_t from, std::size_t to) -> net::Link& {
    if (network) return network->link(static_cast<int>(from), static_cast<int>(to));
    std::unique_ptr<net::Link>& link = links[from * n + to];
    if (!link) {
      link = std::make_unique<net::Link>(sim, static_cast<int>(from), static_cast<int>(to),
                                         delay_proto.clone(), net_rng);
    }
    return *link;
  };

  // --- completion tracking ---
  RunResult result;
  CompletionTracker tracker;
  tracker.sim = &sim;
  tracker.result = &result;
  tracker.target_completions = probe.target_completions;
  tracker.sojourn_log = probe.sojourn_log;
  for (const std::size_t m : config.workloads) tracker.remaining += m;
  tracker.injection_done = !has_arrivals;
  tracker.maybe_finish();
  for (std::size_t i = 0; i < n; ++i) {
    ces[i]->set_completion_handler(
        [&tracker](const node::Task& task) { tracker.on_complete(task); });
  }

  // --- initial workloads: unit tasks on the model (it draws service times
  //     from Exp(lambda_d) regardless of size); on the testbed, tasks with
  //     Exp(1) sizes drawn from each node's service stream (Fig. 1) ---
  std::uint64_t next_id = 1;
  if (on_testbed) {
    app::WorkloadGenerator generator;
    for (std::size_t i = 0; i < n; ++i) {
      ces[i]->enqueue_batch(
          generator.generate(config.workloads[i], static_cast<int>(i), rngs[i]));
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      ces[i]->enqueue_units(config.workloads[i], next_id);
      next_id += config.workloads[i];
    }
  }

  // --- topology (non-complete graphs restrict every policy's neighbourhood;
  //     under edge churn one graph per environment state is prebuilt here and
  //     the transition listener swaps the active pointer) ---
  std::vector<net::Topology> topo_states;
  if (!config.topology.complete()) {
    net::Topology base_topo = net::Topology::build(config.topology, n);
    if (config.topology.dynamic()) {
      const std::size_t k_states = config.environment.states;
      topo_states.reserve(k_states);
      for (std::size_t s = 0; s < k_states; ++s) {
        const double drop = k_states > 1
                                ? config.topology.churn_drop * static_cast<double>(s) /
                                      static_cast<double>(k_states - 1)
                                : 0.0;
        topo_states.push_back(base_topo.with_edge_churn(drop, config.topology.churn_spare,
                                                        config.topology.seed, s));
      }
    } else {
      topo_states.push_back(std::move(base_topo));
    }
  }

  // --- decision plane: the model's policy reads the exact LiveView; each
  //     testbed node decides on its own NodeLocalView — its queue live, its
  //     peers as last heard on the state board the broadcaster feeds ---
  LiveView view(config.params, hot_queue_len, hot_up);
  if (!topo_states.empty()) {
    const std::size_t s0 =
        config.topology.dynamic() ? config.environment.initial_state : 0;
    view.set_topology(&topo_states[s0]);
  }
  std::optional<testbed::StateBoard> board;
  std::vector<testbed::NodeLocalView> local_views;
  std::optional<testbed::StateBroadcaster> broadcaster;
  if (on_testbed) {
    board.emplace(n);
    local_views.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      local_views.emplace_back(static_cast<int>(i), config.params, ces, *board);
    }
    broadcaster.emplace(sim, *network, *board, ces, config.params, config.exchange_period);
  }

  // --- transfer plumbing ---
  // The delivery handler captures one pointer to this per-run context so the
  // std::function stays in its small-object buffer (bundle size for the trace
  // is recovered from the transfer itself).
  struct DeliveryCtx {
    std::vector<std::unique_ptr<node::ComputeElement>>* ces;
    RunTrace* trace;
    des::Simulator* sim;
  };
  DeliveryCtx delivery{&ces, trace, &sim};
  // `acting_node` >= 0 marks a node-local (testbed) decision, which may only
  // ship that node's own tasks; -1 is the model's global decision.
  const auto execute = [&](const std::vector<core::TransferDirective>& directives,
                           int acting_node) {
    for (const core::TransferDirective& d : directives) {
      LBSIM_REQUIRE(acting_node < 0 || d.from == acting_node,
                    "node " << acting_node << " directed a transfer from " << d.from);
      LBSIM_REQUIRE(d.from >= 0 && static_cast<std::size_t>(d.from) < n, "from=" << d.from);
      LBSIM_REQUIRE(d.to >= 0 && static_cast<std::size_t>(d.to) < n && d.to != d.from,
                    "to=" << d.to);
      LBSIM_REQUIRE(view.topology() == nullptr ||
                        view.topology()->adjacent(static_cast<std::size_t>(d.from),
                                                  static_cast<std::size_t>(d.to)),
                    "directive " << d.from << "->" << d.to
                                 << " crosses a non-edge of the active topology");
      if (d.count == 0) continue;
      node::TaskBatch batch = ces[static_cast<std::size_t>(d.from)]->extract_tasks(d.count);
      if (batch.empty()) continue;
      result.bundles_sent += 1;
      result.tasks_moved += batch.size();
      if (trace != nullptr) {
        trace->events.emit(sim.now(), obs::Kind::kTransferSend, d.from, d.to,
                           static_cast<std::uint32_t>(batch.size()));
      }
      link_for(static_cast<std::size_t>(d.from), static_cast<std::size_t>(d.to))
          .send(
              std::move(batch),
              [ctx = &delivery](net::DataTransfer&& xfer) {
                if (ctx->trace != nullptr) {
                  ctx->trace->events.emit(ctx->sim->now(), obs::Kind::kTransferDeliver,
                                          xfer.from, xfer.to,
                                          static_cast<std::uint32_t>(xfer.tasks.size()));
                }
                (*ctx->ces)[static_cast<std::size_t>(xfer.to)]->enqueue_batch(
                    std::move(xfer.tasks));
              },
              network ? network->channel().data_multiplier() : 1.0);
    }
  };

  // --- churn ---
  std::vector<std::unique_ptr<node::FailureProcess>> churn;
  churn.reserve(n);
  core::LoadBalancingPolicy& policy = *config.policy;
  /// Shared churn-hook context: per-node handlers capture one pointer, so
  /// their std::functions also stay inside the small-object buffer.
  struct ChurnHooks {
    RunResult* result;
    RunTrace* trace;
    des::Simulator* sim;
    core::LoadBalancingPolicy* policy;
    LiveView* view;
    const testbed::StateBoard* board;  // null on the model
    const std::vector<testbed::NodeLocalView>* local_views;
    const decltype(execute)* execute_directives;

    /// The view `node` decides on. On the testbed this also records the age
    /// of every peer entry the decision consults (RunResult::state_age).
    const core::SystemView& view_of(int node) const {
      if (board == nullptr) return *view;
      for (std::size_t peer = 0; peer < local_views->size(); ++peer) {
        if (static_cast<int>(peer) == node) continue;
        result->state_age.add(sim->now() -
                              board->last_heard(node, static_cast<int>(peer)).timestamp);
      }
      return (*local_views)[static_cast<std::size_t>(node)];
    }
    /// Directive owner check: node-local decisions on the testbed only.
    int acting(int node) const { return board == nullptr ? -1 : node; }

    void on_failure(int node_id) const {
      ++result->failures;
      if (trace != nullptr) trace->events.emit(sim->now(), obs::Kind::kFail, node_id);
      const std::vector<core::TransferDirective> directives =
          policy->on_failure(node_id, view_of(node_id));
      if (trace != nullptr) {
        trace->events.emit(sim->now(), obs::Kind::kPolicyDecision, node_id, -1,
                           static_cast<std::uint32_t>(directives.size()));
      }
      (*execute_directives)(directives, acting(node_id));
    }
    void on_recovery(int node_id) const {
      ++result->recoveries;
      if (trace != nullptr) trace->events.emit(sim->now(), obs::Kind::kRecover, node_id);
      const std::vector<core::TransferDirective> directives =
          policy->on_recovery(node_id, view_of(node_id));
      if (trace != nullptr) {
        trace->events.emit(sim->now(), obs::Kind::kPolicyDecision, node_id, -1,
                           static_cast<std::uint32_t>(directives.size()));
      }
      (*execute_directives)(directives, acting(node_id));
    }
  };
  ChurnHooks hooks{&result, trace, &sim, &policy, &view, board ? &*board : nullptr,
                   &local_views, &execute};
  // Scheduled nodes swap the alternating-renewal driver for their
  // deterministic timeline; both feed the same churn hooks, so policies see
  // an identical event interface. (Sized lazily: unscheduled scenarios skip
  // the allocation on the per-replication path.)
  std::vector<std::unique_ptr<env::ScheduleDriver>> schedules;
  if (!config.schedule.empty()) schedules.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (config.schedule.scheduled(i)) {
      auto driver = std::make_unique<env::ScheduleDriver>(sim, config.schedule.per_node[i]);
      driver->set_handler([ce = ces[i].get(), hooks_ptr = &hooks](bool down) {
        if (down) {
          ce->fail();
          hooks_ptr->on_failure(ce->id());
        } else {
          ce->recover();
          hooks_ptr->on_recovery(ce->id());
        }
      });
      schedules[i] = std::move(driver);
      churn.push_back(nullptr);
      continue;
    }
    const markov::NodeParams& np = config.params.nodes[i];
    stoch::DistributionPtr ttf;
    stoch::DistributionPtr ttr;
    if (config.churn_enabled && np.lambda_f > 0.0) {
      ttf = std::make_unique<stoch::Exponential>(np.lambda_f);
      ttr = std::make_unique<stoch::Exponential>(np.lambda_r);
    } else if (config.starts_down(i)) {
      ttr = std::make_unique<stoch::Exponential>(np.lambda_r);
    }
    churn.push_back(std::make_unique<node::FailureProcess>(sim, *ces[i], std::move(ttf),
                                                           std::move(ttr), rngs[n + i]));
  }
  // Attached when the t = 0 stage below says so: the testbed starts its
  // initially-down nodes before any hook is listening.
  const auto attach_churn_hooks = [&] {
    for (const auto& process : churn) {
      if (!process) continue;
      process->set_failure_handler([&hooks](int node_id) { hooks.on_failure(node_id); });
      process->set_recovery_handler([&hooks](int node_id) { hooks.on_recovery(node_id); });
    }
  };

  // --- environment (common-shock CTMC modulating every failure hazard) ---
  std::optional<env::Environment> environment;
  if (has_environment) {
    environment.emplace(sim, config.environment, *env_rng);
    if (trace != nullptr) environment->set_event_trace(&trace->events);
  }
  // An env-coupled state channel is floored by the environment state (storms
  // jam the state plane too).
  net::Network* coupled_channel =
      network && config.state_channel.env_coupled ? &*network : nullptr;

  // --- external arrivals (open-system task injection) ---
  std::optional<env::ArrivalProcess> arrivals;
  struct ArrivalCtx {
    std::vector<std::unique_ptr<node::ComputeElement>>* ces;
    CompletionTracker* tracker;
    RunResult* result;
    RunTrace* trace;
    des::Simulator* sim;
    core::LoadBalancingPolicy* policy;
    LiveView* view;
    const decltype(execute)* execute_directives;
    std::uint64_t* next_id;
    bool rebalance;
  };
  ArrivalCtx arrival_ctx{&ces,  &tracker, &result,  trace,   &sim,
                         &policy, &view,  &execute, &next_id, config.arrivals.rebalance};
  if (has_arrivals) {
    arrivals.emplace(sim, config.arrivals, n, environment ? &*environment : nullptr,
                     *arrival_rng);
    arrivals->set_sink([ctx = &arrival_ctx](std::size_t node, std::size_t tasks, bool last) {
      ctx->tracker->remaining += tasks;
      ctx->result->tasks_arrived += tasks;
      (*ctx->ces)[node]->enqueue_units(tasks, *ctx->next_id);
      *ctx->next_id += tasks;
      if (ctx->trace != nullptr) {
        ctx->trace->events.emit(ctx->sim->now(), obs::Kind::kInject,
                                static_cast<std::int32_t>(node), -1,
                                static_cast<std::uint32_t>(tasks));
      }
      if (ctx->rebalance) {
        // Section 5's "LB episode at every external arrival": replay the
        // policy's initial balancing decision against the live queues.
        const std::vector<core::TransferDirective> directives =
            ctx->policy->on_start(*ctx->view);
        if (ctx->trace != nullptr) {
          ctx->trace->events.emit(ctx->sim->now(), obs::Kind::kPolicyDecision,
                                  static_cast<std::int32_t>(node), -1,
                                  static_cast<std::uint32_t>(directives.size()));
        }
        (*ctx->execute_directives)(directives, -1);
      }
      if (last) {
        ctx->tracker->injection_done = true;
        ctx->tracker->maybe_finish();
      }
    });
  }

  // Wire the environment's listener once its consumers exist: re-arm every
  // stochastic failure process at the new state's hazard, re-draw the MMPP
  // gap, swap the active topology and floor a coupled channel. Listener
  // fires per transition (rare), so the std::function is off the per-event
  // hot path.
  if (environment) {
    struct EnvCtx {
      std::vector<std::unique_ptr<node::FailureProcess>>* churn;
      env::Environment* environment;
      env::ArrivalProcess* arrivals;
      LiveView* view;
      const std::vector<net::Topology>* topo_states;  // null unless edge churn
      net::Network* coupled_channel;
      const ScenarioConfig* config;
    };
    // (The kEnvTransition trace record is emitted by the Environment itself,
    // before this listener runs.)
    environment->set_transition_listener(
        [ctx = EnvCtx{&churn, &*environment, arrivals ? &*arrivals : nullptr, &view,
                      config.topology.dynamic() ? &topo_states : nullptr, coupled_channel,
                      &config}](std::size_t /*from*/, std::size_t to) {
          const double mult = ctx.environment->spec().failure_mult[to];
          for (const auto& process : *ctx.churn) {
            if (process) process->set_hazard_multiplier(mult);
          }
          if (ctx.arrivals != nullptr) ctx.arrivals->on_environment_transition();
          if (ctx.topo_states != nullptr) {
            ctx.view->set_topology(&(*ctx.topo_states)[to]);
          }
          if (ctx.coupled_channel != nullptr) {
            ctx.coupled_channel->set_channel_floor(channel_floor(*ctx.config, to));
          }
        });
    // The initial state's multiplier applies to the very first TTF draws.
    const double mult = environment->failure_multiplier();
    for (const auto& process : churn) {
      if (process) process->set_hazard_multiplier(mult);
    }
  }

  // `tick` outlives the whole run (the simulation drains inside this scope),
  // so the rescheduling lambda can reference it directly — a self-captured
  // shared_ptr here leaks one cycle per replication.
  std::function<void()> tick;
  if (!on_testbed) {
    // --- t = 0: policy's initial action, then churn starts ---
    attach_churn_hooks();
    const std::vector<core::TransferDirective> initial = policy.on_start(view);
    if (trace != nullptr) {
      trace->events.emit(sim.now(), obs::Kind::kPolicyDecision, -1, -1,
                         static_cast<std::uint32_t>(initial.size()));
    }
    execute(initial, -1);
    if (config.rebalance_period > 0.0) {
      // Recurring timer for periodic policies; stops mattering once done.
      tick = [&] {
        if (tracker.done) return;
        const std::vector<core::TransferDirective> directives = policy.on_periodic(view);
        if (trace != nullptr) {
          trace->events.emit(sim.now(), obs::Kind::kPolicyDecision, -1, -1,
                             static_cast<std::uint32_t>(directives.size()));
        }
        execute(directives, -1);
        sim.schedule_in(config.rebalance_period, tick);
      };
      sim.schedule_in(config.rebalance_period, tick);
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!schedules.empty() && schedules[i] != nullptr) {
        schedules[i]->start();  // fires a down@0 synchronously, like initially_down
        continue;
      }
      const bool can_churn = config.churn_enabled && config.params.nodes[i].lambda_f > 0.0;
      const bool starts_down = config.starts_down(i);
      if (can_churn || starts_down) churn[i]->start(starts_down);
    }
    if (environment) environment->start();
    if (arrivals) arrivals->start();
  } else {
    // --- t = 0 on the testbed (Section 3). Initially-down nodes fail before
    //     any hook listens, so starting down is an initial condition (seen by
    //     every t = 0 decision), not a t = 0 failure event. Every node knows
    //     the exact initial state (the paper's assumption), then runs the
    //     policy on its own view and executes only its own transfers — the
    //     distributed decision in which every node computes the same schedule
    //     from synced state. Then churn, the environment and the periodic
    //     broadcasts start. ---
    for (std::size_t i = 0; i < n; ++i) {
      if (config.starts_down(i)) churn[i]->start(/*initially_down=*/true);
    }
    broadcaster->seed_exact_state();
    for (std::size_t i = 0; i < n; ++i) {
      const int self = static_cast<int>(i);
      std::vector<core::TransferDirective> mine;
      for (const core::TransferDirective& d : policy.on_start(hooks.view_of(self))) {
        if (d.from == self) mine.push_back(d);
      }
      if (trace != nullptr) {
        trace->events.emit(sim.now(), obs::Kind::kPolicyDecision, self, -1,
                           static_cast<std::uint32_t>(mine.size()));
      }
      execute(mine, self);
    }
    attach_churn_hooks();
    if (environment) {
      if (coupled_channel != nullptr) {
        coupled_channel->set_channel_floor(channel_floor(config, environment->state()));
      }
      environment->start();
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (config.churn_enabled && config.params.nodes[i].lambda_f > 0.0 &&
          !config.starts_down(i)) {
        churn[i]->start();
      }
    }
    broadcaster->start();
  }

  ProfileClock::time_point profile_loop{};
  if (controls.profile != nullptr) {
    profile_loop = ProfileClock::now();
    controls.profile->setup_s +=
        std::chrono::duration<double>(profile_loop - profile_begin).count();
  }
  sim.run_while_pending([&] { return tracker.done; });
  if (controls.profile != nullptr) {
    controls.profile->loop_s +=
        std::chrono::duration<double>(ProfileClock::now() - profile_loop).count();
    controls.profile->reps += 1;
  }
  LBSIM_CHECK(tracker.done, "simulation drained its event queue before completing "
                                << tracker.remaining << " tasks"
                                << (tracker.injection_done
                                        ? ""
                                        : " (arrival stream starved: an MMPP state with "
                                          "rate 0 and no environment transitions?)"));

  result.completion_time = tracker.completion_time;
  if (environment) result.env_transitions = environment->transitions();
  if (network) result.state_packets_lost = network->state_packets_lost();
  for (const auto& ce : ces) result.tasks_completed += ce->stats().tasks_completed;
  if (controls.metrics != nullptr) {
    add_queue_metrics(*controls.metrics, queue_before, sim.queue_stats());
  }
  return result;
}

}  // namespace lbsim::mc
