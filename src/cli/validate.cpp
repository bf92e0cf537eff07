#include "cli/validate.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "cli/registry.hpp"
#include "markov/theory_oracle.hpp"
#include "mc/engine.hpp"
#include "mc/steady.hpp"
#include "mc/theory.hpp"
#include "stochastic/stats.hpp"
#include "testbed/config.hpp"

namespace lbsim::cli {
namespace {

/// One validation point: a registry family plus the key overrides that pin it
/// to a configuration worth checking. Points where no solver applies are kept
/// on purpose — they exercise (and display) the tractability boundary.
struct ValidationPoint {
  const char* family;
  const char* label;
  std::vector<std::pair<const char*, const char*>> overrides;
  /// Run the eq. (5) distribution solver and the KS gate (two-node, and cheap
  /// enough for the gate).
  bool check_cdf = false;
};

/// The fixed validation grid: at least one point per registry family, biased
/// toward configurations an exact solver covers, plus boundary points that
/// must come back as "skip".
const std::vector<ValidationPoint>& validation_points() {
  static const std::vector<ValidationPoint> points = {
      // The paper's own operating point: LBP-1 at gain 0.35 on (100, 60).
      {"paper-two-node", "lbp1-paper-point", {}, /*check_cdf=*/true},
      {"paper-two-node", "no-balancing", {{"policy", "none"}}, /*check_cdf=*/true},
      // n-node overlap with the multi-node recursion, with and without a
      // t = 0 transfer plan (LBP-1's one-shot excess partition). Workloads are
      // pinned small: the recursion's lattice is the product of the queue
      // extents, so the family defaults (100, 60, ...) are intractable.
      {"multi-node", "no-balancing", {{"policy", "none"}, {"workloads", "10,6,4,3"}}},
      {"multi-node", "lbp1-oneshot",
       {{"policy", "lbp1"}, {"gain", "0.6"}, {"workloads", "12,2,2,2"}}},
      {"many-node-churn", "solver-overlap-n5",
       {{"nodes", "5"}, {"workloads", "12,8,6,4,2"}, {"policy", "none"}}},
      // n = 32 with a solver-expressible policy: far past the n <= 8
      // tractability boundary — must surface the no-solver marker, not a
      // number.
      {"many-node-churn", "n32-boundary", {{"policy", "none"}}},
      {"churn-storm", "lbp1-under-storm", {{"policy", "lbp1"}, {"gain", "0.35"}}},
      // Node 0 starts down (family default): the solvers' initial work-state
      // parameter, checked against MC with the CDF gate too.
      {"cold-start", "down-node0", {{"policy", "none"}}, /*check_cdf=*/true},
      // Periodic timers have no closed form — boundary marker.
      {"periodic-rebalance", "defaults-boundary", {}},
      // The family default Erlang bundle delay is outside the analytical law
      // (boundary marker); forcing the exponential law restores the solver.
      {"custom-delay", "erlang-delay-boundary", {}},
      {"custom-delay", "exponential-delay",
       {{"delay.model", "exponential"}, {"policy", "lbp1"}}},
      // The env-driven families: each boundary point must surface its pinned
      // decline marker (environment-modulated churn / open arrivals /
      // deterministic schedule — validation_test pins the strings).
      {"correlated-churn", "env-modulation-boundary", {}},
      // With churn frozen the environment is vacuous and the family collapses
      // to the paper's closed two-node system — a real theory check that the
      // env plumbing does not perturb the unmodulated path.
      {"correlated-churn", "calm-reduction",
       {{"churn", "false"}, {"policy", "none"}}, /*check_cdf=*/true},
      {"open-arrivals", "poisson-arrivals-boundary", {}},
      {"open-arrivals", "mmpp-arrivals-boundary", {{"arrivals.process", "mmpp"}}},
      {"scheduled-churn", "schedule-boundary", {}},
      // Steady-state open-system points: the theory column is the exact M/M/1
      // stationary sojourn law (mean z-gate; thinned KS against Exp(mu-lambda)
      // when check_cdf). All arrivals to node 0 of a churn-free pair: M/M/1 at
      // rho = 0.7 exactly.
      {"open-steady", "mm1-rho0.7",
       {{"churn", "false"},
        {"policy", "none"},
        {"lambda_d", "1"},
        {"arrivals.target", "0"},
        {"arrivals.rate", "0.7"},
        {"steady.tasks", "30000"}},
       /*check_cdf=*/true},
      // Uniform split over 4 homogeneous servers: thinning a Poisson stream
      // gives 4 independent M/M/1(lambda/4, mu) queues; sojourn ~
      // Exp(mu - lambda/4) exactly.
      {"open-steady", "mm1-split-n4",
       {{"churn", "false"},
        {"policy", "none"},
        {"nodes", "4"},
        {"lambda_d", "1.2"},
        {"rho", "0.6"}},
       /*check_cdf=*/true},
      // Family defaults keep churn on: stationary sojourn time has no closed
      // form there — the boundary marker the steady theory bridge must pin.
      {"open-steady", "churn-boundary", {}},
      {"open-steady", "batch-boundary", {{"churn", "false"}, {"arrivals.batch", "5"}}},
      // Graph families: every non-complete topology declines with the pinned
      // "neighbourhood-restricted topology" marker (validation_test pins the
      // string)...
      {"graph-ring", "ring-boundary", {}},
      {"graph-torus", "torus-boundary", {}},
      {"graph-rr", "edge-churn-boundary",
       {{"topology.churn.drop", "0.5"}, {"env.storm.mult", "1"}}},
      // ...while topology=complete must collapse to the global-state solver
      // path exactly — a real checked point on a graph family (workloads
      // pinned small for the multi-node recursion's lattice).
      {"graph-ring", "complete-reduction",
       {{"topology", "complete"},
        {"policy", "none"},
        {"nodes", "4"},
        {"workloads", "10,6,4,3"}}},
      // Testbed family: no exact oracle applies, so the checkable point is the
      // i.i.d.-reduction identity — a 1-state channel with loss p must be
      // bit-identical to the Bernoulli fallback exchange.loss = p (the
      // degenerate channel IS the fallback code path; any drift means the
      // per-packet CRN stream discipline broke). Bursty (k >= 2) and blackout
      // points are pinned boundary markers (validation_test pins the strings).
      {"lossy-exchange", "iid-reduction",
       {{"channel.states", "1"}, {"channel.loss", "0.25"}, {"channel.burst", "1"}}},
      {"lossy-exchange", "bursty-boundary", {{"channel.states", "2"}}},
      {"lossy-exchange", "blackout-boundary",
       {{"channel.states", "0"}, {"exchange.loss", "1"}}},
  };
  return points;
}

}  // namespace

std::vector<std::string> validation_families() {
  std::vector<std::string> families;
  for (const ValidationPoint& point : validation_points()) {
    if (std::find(families.begin(), families.end(), point.family) == families.end()) {
      families.emplace_back(point.family);
    }
  }
  return families;
}

double ks_critical(std::size_t n, double alpha) {
  return std::sqrt(-std::log(alpha / 2.0) / (2.0 * static_cast<double>(n)));
}

ValidationReport run_validation(const ValidationOptions& options) {
  if (!options.family.empty()) (void)find_scenario(options.family);  // did-you-mean throw

  const std::size_t reps = options.replications != 0 ? options.replications
                           : options.strict         ? 1500
                                                    : 400;
  const double sigma_gate =
      options.sigma_gate > 0.0 ? options.sigma_gate : (options.strict ? 4.0 : 5.0);
  // alpha = 0.01 Kolmogorov critical value for the MC sample size, plus an
  // absolute slack for the ODE solver's dt-grid discretisation.
  const double ks_gate = ks_critical(reps, 0.01) + options.ks_slack;

  ValidationReport report{
      util::TextTable({"family", "point", "method", "theory_mean", "mc_mean", "sigma_err",
                       "ks", "verdict"}),
      {},
      0,
      0,
      0};

  const markov::TheoryOracle oracle;
  const auto start = std::chrono::steady_clock::now();
  for (const ValidationPoint& point : validation_points()) {
    if (!options.family.empty() && options.family != point.family) continue;
    const ScenarioSpec& spec = find_scenario(point.family);
    RawConfig raw;
    for (const auto& [key, value] : point.overrides) raw.set(key, value);
    const mc::ScenarioConfig built = spec.build(spec.schema.resolve(raw));

    if (spec.steady) {
      // Open-system point: the theory side is the stationary M/M/1 law
      // (mc::map_to_open_theory), the MC side one steady-state window. The
      // mean gate is the same z-score as the finite path but against the
      // batch-means standard error; the KS gate runs on a thinned
      // subsequence of the post-warm-up series (within-run sojourns are
      // autocorrelated, so the iid critical value needs quasi-independent
      // draws).
      const mc::OpenTheory theory = mc::map_to_open_theory(built);
      if (!theory.ok) {
        ++report.skipped;
        report.table.add_row(
            {point.family, point.label, "-", "-", "-", "-", "-", "skip: " + theory.reason});
        continue;
      }
      mc::SteadyConfig steady_config;
      steady_config.seed = options.seed;
      steady_config.threads = options.threads;
      steady_config.collect_samples = point.check_cdf && theory.has_law;
      const mc::SteadyResult steady = mc::run_steady(built, steady_config);

      const double std_error = steady.std_error();
      const double sigma_err =
          std_error > 0.0 ? (steady.mean() - theory.mean) / std_error : 0.0;
      bool failed = std::fabs(sigma_err) > sigma_gate;

      std::string ks_cell = "-";
      if (steady_config.collect_samples) {
        // Thin to ~400 quasi-independent draws: at stride n/400 the lag
        // correlation of an M/M/1 sojourn sequence has decayed to noise, so
        // the iid Kolmogorov critical value applies to the thinned set.
        const std::vector<double>& series = steady.series;
        const std::size_t stride = std::max<std::size_t>(1, series.size() / 400);
        std::vector<double> thinned;
        thinned.reserve(series.size() / stride + 1);
        for (std::size_t i = 0; i < series.size(); i += stride) {
          thinned.push_back(series[i]);
        }
        const stoch::Ecdf ecdf(std::move(thinned));
        // Grid over the law's 99.9% range; reference = 1 - exp(-rate x).
        constexpr std::size_t kGrid = 200;
        const double x_max = -std::log(0.001) / theory.rate;
        std::vector<double> grid(kGrid + 1);
        std::vector<double> reference(kGrid + 1);
        for (std::size_t i = 0; i <= kGrid; ++i) {
          grid[i] = x_max * static_cast<double>(i) / static_cast<double>(kGrid);
          reference[i] = 1.0 - std::exp(-theory.rate * grid[i]);
        }
        const double ks = stoch::ks_distance_to_curve(ecdf, grid, reference);
        const double steady_ks_gate = ks_critical(ecdf.size(), 0.01) + options.ks_slack;
        ks_cell = util::format_double(ks, 4) + "/" + util::format_double(steady_ks_gate, 4);
        failed = failed || ks > steady_ks_gate;
      }

      ++report.checked;
      if (failed) ++report.failures;
      report.table.add_row({point.family, point.label,
                            theory.has_law ? "mm1-stationary" : "mm1-mixture-mean",
                            util::format_double(theory.mean, 3),
                            util::format_double(steady.mean(), 3),
                            util::format_double(sigma_err, 2), ks_cell,
                            failed ? "FAIL" : "ok"});
      continue;
    }

    if (spec.testbed) {
      const net::ChannelSpec& channel = built.state_channel;
      if (channel.enabled() && (channel.states >= 2 || channel.env_coupled)) {
        ++report.skipped;
        report.table.add_row({point.family, point.label, "-", "-", "-", "-", "-",
                              "skip: bursty Markov state-plane channel (no closed form)"});
        continue;
      }
      if (!channel.enabled() && built.exchange_loss >= 1.0) {
        ++report.skipped;
        report.table.add_row({point.family, point.label, "-", "-", "-", "-", "-",
                              "skip: blackout state plane (no closed form)"});
        continue;
      }
      // i.i.d. reduction: re-run the same point with the channel stripped and
      // its single-state loss moved to the Bernoulli fallback. Both paths draw
      // the same per-packet uniforms from the same stream, so the gate is
      // exact equality of the completion-time statistics, not a z-score.
      mc::ScenarioConfig reduced = built.clone();
      reduced.exchange_loss = channel.enabled() && !channel.loss.empty() ? channel.loss[0]
                                                                        : built.exchange_loss;
      reduced.state_channel = net::ChannelSpec{};
      mc::McConfig testbed_config;
      testbed_config.replications = 20;
      testbed_config.seed = options.seed;
      testbed_config.threads = options.threads;
      const mc::McResult with_channel =
          mc::run_monte_carlo(testbed::emulate(built.clone()), testbed_config);
      const mc::McResult fallback =
          mc::run_monte_carlo(testbed::emulate(std::move(reduced)), testbed_config);
      const bool failed = with_channel.completion.mean() != fallback.completion.mean() ||
                          with_channel.completion.max() != fallback.completion.max();
      ++report.checked;
      if (failed) ++report.failures;
      report.table.add_row({point.family, point.label, "iid-reduction",
                            util::format_double(fallback.mean(), 3),
                            util::format_double(with_channel.mean(), 3),
                            failed ? "inf" : "0", "-", failed ? "FAIL" : "ok"});
      continue;
    }

    const mc::TheoryMapping mapping = mc::map_to_theory(built);
    markov::TheoryPrediction prediction;
    if (mapping.ok) prediction = oracle.mean(mapping.query);
    if (!mapping.ok || !prediction.applicable) {
      ++report.skipped;
      report.table.add_row({point.family, point.label, "-", "-", "-", "-", "-",
                            "skip: " + (mapping.ok ? prediction.reason : mapping.reason)});
      continue;
    }

    mc::McConfig mc_config;
    mc_config.replications = reps;
    mc_config.seed = options.seed;
    mc_config.threads = options.threads;
    mc_config.collect_samples = point.check_cdf;
    const mc::McResult mc_result = mc::run_monte_carlo(built, mc_config);

    const double std_error = mc_result.std_error();
    const double sigma_err =
        std_error > 0.0 ? (mc_result.mean() - prediction.mean) / std_error : 0.0;
    bool failed = std::fabs(sigma_err) > sigma_gate;

    std::string ks_cell = "-";
    if (point.check_cdf) {
      // dt = 0.1 halves the ODE work vs the solver default; the coarser
      // sampling costs ~F'·dt ≈ 0.002 of KS resolution, inside ks_slack.
      markov::TwoNodeCdfSolver::Config cdf_config;
      cdf_config.dt = 0.1;
      const markov::TheoryCdfPrediction cdf = oracle.cdf(mapping.query, cdf_config);
      if (cdf.applicable) {
        const stoch::Ecdf ecdf(mc_result.samples);
        const double ks =
            stoch::ks_distance_to_curve(ecdf, cdf.curve.grid, cdf.curve.values);
        ks_cell = util::format_double(ks, 4) + "/" + util::format_double(ks_gate, 4);
        failed = failed || ks > ks_gate;
      } else {
        ks_cell = "-";
      }
    }

    ++report.checked;
    if (failed) ++report.failures;
    report.table.add_row({point.family, point.label, prediction.method,
                          util::format_double(prediction.mean, 3),
                          util::format_double(mc_result.mean(), 3),
                          util::format_double(sigma_err, 2), ks_cell,
                          failed ? "FAIL" : "ok"});
  }

  // Coverage guard: a registry family with no validation points would make
  // "validate passed" vacuous for it — surface that as a failure so adding a
  // family forces adding (at least a boundary) point.
  const std::vector<std::string> covered = validation_families();
  for (const ScenarioSpec& spec : scenario_registry()) {
    if (!options.family.empty() && options.family != spec.name) continue;
    if (std::find(covered.begin(), covered.end(), spec.name) == covered.end()) {
      ++report.failures;
      report.table.add_row({spec.name, "-", "-", "-", "-", "-", "-",
                            "FAIL: no validation points registered for this family"});
    }
  }

  report.metadata.scenario = "validate";
  report.metadata.seed = options.seed;
  report.metadata.replications = reps;
  report.metadata.threads = options.threads;
  report.metadata.extra.emplace_back("sigma_gate", util::format_double(sigma_gate, 2));
  report.metadata.extra.emplace_back("ks_gate", util::format_double(ks_gate, 4));
  report.metadata.extra.emplace_back("strict", options.strict ? "true" : "false");
  report.metadata.wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - start)
          .count();
  return report;
}

}  // namespace lbsim::cli
