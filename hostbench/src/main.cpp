/// \file
/// hostbench: single-threaded host-time benchmark of the lbsim replication
/// kernels, with per-layer attribution measured from outside the program.
///
///   hostbench --workload paper2|churn256|lossy_testbed --seed N --seconds S
///             --trace 0|1 [--spans-dir DIR] [--git-rev REV]
///
/// --trace 0 prints the end-to-end metrics (tracing off, plus a paired pass
/// with the program's own trace/metrics/profile sinks); --trace 1 prints the
/// per-layer metrics from a separate probed pass and writes the benchmark's
/// spans to DIR. Every line but the last is human-readable; the last line is
/// one JSON object {correct, attempted, failed, metrics}. See
/// hostbench/README.md and BENCHMARK.json.

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "histogram.hpp"
#include "net/delay_model.hpp"
#include "obs/trace.hpp"
#include "probes.hpp"
#include "stochastic/rng.hpp"
#include "stochastic/stats.hpp"
#include "workloads.hpp"

namespace hostbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 30.0;
  std::uint64_t min_calls = 120;
  bool trace = false;
  std::string spans_dir = ".";
  std::string git_rev = "unknown";
};

/// The timed loop is cut into this many time slices of --seconds / kSlices,
/// each followed by a batch of set-ups, so set-up is measured on the same
/// host as the timed passes. A fixed slice count keeps the benchmark's own
/// buffers (and with them peak_rss_mb) independent of machine speed.
constexpr std::size_t kSlices = 20;
/// Replications one block covers at most: pass B and pass C are compared
/// with pass A's results of the block, kept in a buffer of this size.
constexpr std::size_t kMaxBlockReps = 256;
/// Set-ups after each slice: at most this many, and no more once 1 % of the
/// slice's time is spent, but always one.
constexpr std::size_t kSetupsPerBatch = 64;

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "hostbench: " << error
            << "\nusage: hostbench --workload paper2|churn256|lossy_testbed --seed N "
               "--seconds S --trace 0|1 [--min-calls N] [--spans-dir DIR] [--git-rev REV]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& key, const std::string& text) {
  std::uint64_t value = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) usage("bad " + key + ": " + text);
  return value;
}

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      o.seed = parse_u64(key, value);
    } else if (key == "--seconds") {
      char* end = nullptr;
      o.seconds = std::strtod(value.c_str(), &end);
      if (end != value.c_str() + value.size() || !(o.seconds > 0)) {
        usage("--seconds must be a positive number");
      }
    } else if (key == "--min-calls") {
      o.min_calls = parse_u64(key, value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (key == "--spans-dir") {
      o.spans_dir = value;
    } else if (key == "--git-rev") {
      o.git_rev = value;
    } else {
      usage("unknown option " + key);
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

/// The program's master seed for benchmark seed n (splitmix64 finaliser, so
/// neighbouring benchmark seeds give unrelated master seeds).
std::uint64_t master_seed(std::uint64_t n) {
  std::uint64_t z = n + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) {
  return v.empty() ? 0.0 : lbsim::stoch::quantile(std::move(v), 0.5);
}

double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

/// Peak resident set of this process image in MiB (VmHWM). getrusage's
/// ru_maxrss is not used: Linux carries the parent's peak across fork+exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc{} ? std::string(buf, end) : std::string("0");
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count, statistic, tail percentile
};

/// One time slice of the timed loop: whole blocks of consecutive calls,
/// each block run through every pass.
struct Slice {
  std::size_t reps = 0;
  double plain_s = 0.0;  ///< pass A: untraced
  double sinks_s = 0.0;  ///< pass B: trace + metrics + profile sinks
  std::uint64_t events = 0;
  std::size_t setups = 0;        ///< set-ups run after the slice
  double setup_s = 0.0;          ///< their median
  double build_ms = 0.0;         ///< median of their registry builds
};

/// One set-up: registry build (plus testbed::from_scenario) and a cold
/// replication `rep` on a fresh simulator.
struct SetupRun {
  std::unique_ptr<Workload> workload;
  mc::RunResult cold;
  double build_ms = 0.0;
  double setup_s = 0.0;
};

SetupRun set_up(const std::string& name, std::uint64_t seed, std::uint64_t rep) {
  SetupRun s;
  const Clock::time_point t0 = Clock::now();
  s.workload = std::make_unique<Workload>(build_workload(name));
  const Clock::time_point t1 = Clock::now();
  Runner runner(*s.workload);
  s.cold = runner.run(seed, rep).result;
  s.build_ms = elapsed_ns(t0, t1) / 1e6;
  s.setup_s = elapsed_ns(t0, Clock::now()) / 1e9;
  return s;
}

class Bench {
 public:
  /// `first` is the run's first set-up (replication 0); its workload is the
  /// one measured.
  Bench(const Options& options, SetupRun first)
      : opt_(options),
        seed_(master_seed(options.seed)),
        first_(std::move(first)),
        w_(*first_.workload),
        runner_(w_) {}

  int run();

 private:
  void check_rep(const mc::RunResult& run);
  void install_probes();
  void set_up_batch(double budget_s, Slice& slice);
  void loop();
  double time_stream_ctor() const;
  double time_testbed_delay();
  void end_to_end_metrics(std::vector<Metric>& out) const;
  void per_layer_metrics(std::vector<Metric>& out);

  const Options& opt_;
  const std::uint64_t seed_;
  SetupRun first_;
  std::uint64_t setups_ = 0;  ///< set-ups run after slices
  const Workload& w_;
  Runner runner_;
  CheckTally tally_;
  lbsim::stoch::RunningStats fold_;

  // pass A
  std::vector<Slice> slices_;
  std::size_t reps_ = 0;  ///< timed calls (excludes the cold one)
  LogHistogram calls_;    ///< pass-A time of each call
  /// Pass A's result of each replication 1..rep_set on its first call; later
  /// calls of the same replication must reproduce it.
  std::vector<mc::RunResult> set_results_;
  double rss_mb_ = 0.0;
  // pass B
  obs::Registry registry_;
  obs::PhaseProfile sinks_profile_;
  std::uint64_t records_ = 0;
  // pass C (per-layer run only)
  std::unique_ptr<Workload> probed_;
  std::unique_ptr<Runner> probed_runner_;
  PolicyStats policy_stats_;
  DelayStats delay_stats_;
  SpanRecorder spans_{20000};
  obs::PhaseProfile probe_profile_;
  AllocCounts allocs_;
  // run totals over pass A results
  std::uint64_t failures_ = 0, bundles_ = 0, moved_ = 0, completed_ = 0, lost_ = 0;
};

void Bench::check_rep(const mc::RunResult& run) {
  tally_.record(tasks_conserved(run, w_.total_tasks), "task conservation");
  tally_.record(churn_bookkeeping_ok(run, w_.nodes), "failure/recovery bookkeeping");
}

void Bench::install_probes() {
  probed_ = std::make_unique<Workload>(w_.clone());
  policy_stats_.spans = &spans_;
  delay_stats_.spans = &spans_;
  core::PolicyPtr& slot = probed_->policy();
  slot = std::make_unique<TimedPolicy>(std::move(slot), policy_stats_);
  if (probed_->engine == Engine::kMc) {
    // The engine's default law, made explicit so it can be timed.
    probed_->scenario.delay_model = std::make_unique<TimedDelay>(
        probed_->scenario.params.per_task_delay_mean, delay_stats_);
  }
  probed_runner_ = std::make_unique<Runner>(*probed_);
}

void Bench::set_up_batch(double budget_s, Slice& slice) {
  std::vector<double> setup_s, build_ms;
  setup_s.reserve(kSetupsPerBatch);
  build_ms.reserve(kSetupsPerBatch);
  const Clock::time_point begin = Clock::now();
  while (setup_s.empty() ||
         (setup_s.size() < kSetupsPerBatch && seconds_since(begin) < budget_s)) {
    // Each set-up runs another replication cold, so setup_s is the cost of a
    // typical replication's set-up, not of one seed's replication 0.
    const SetupRun s = set_up(opt_.workload, seed_, ++setups_);
    setup_s.push_back(s.setup_s);
    build_ms.push_back(s.build_ms);
  }
  slice.setups = setup_s.size();
  slice.setup_s = median(std::move(setup_s));
  slice.build_ms = median(std::move(build_ms));
}

void Bench::loop() {
  constexpr std::size_t kSpanReps = 32;  // calls whose spans are kept
  const double slice_s = opt_.seconds / static_cast<double>(kSlices);
  std::vector<mc::RunResult> plain;
  plain.reserve(kMaxBlockReps);
  slices_.reserve(2 * kSlices);
  set_results_.reserve(w_.rep_set);
  // Call k runs replication 1 + (k - 1) % rep_set, so the loop cycles
  // through replications 1..rep_set in order (replication 0 ran cold during
  // set-up).
  const auto replication = [this](std::uint64_t k) { return 1 + (k - 1) % w_.rep_set; };
  std::uint64_t call = 1;
  const Clock::time_point loop_begin = Clock::now();
  for (;;) {
    Slice slice;
    const Clock::time_point slice_begin = Clock::now();
    while (seconds_since(slice_begin) < slice_s) {
      const std::uint64_t first = call;

      // Pass A: tracing off, one timed call per replication.
      plain.clear();
      const Clock::time_point a0 = Clock::now();
      do {
        const std::uint64_t r = replication(call);
        const Clock::time_point c0 = Clock::now();
        const RepOutcome out = runner_.run(seed_, r);
        const double call_ns = elapsed_ns(c0, Clock::now());
        calls_.add(call_ns);
        plain.push_back(out.result);
        ++call;
      } while (seconds_since(a0) < slice_s / 4 && plain.size() < kMaxBlockReps);
      slice.plain_s += seconds_since(a0);
      slice.reps += call - first;

      // Pass B: the program's own sinks on the same replications.
      const Clock::time_point b0 = Clock::now();
      for (std::uint64_t k = first; k < call; ++k) {
        mc::RunTrace trace;
        trace.record_queues = false;
        const RepOutcome out = runner_.run(seed_, replication(k),
                                           RepSinks{&trace, &sinks_profile_, &registry_});
        records_ += trace.events.size();
        slice.events += out.events.value_or(0);
        tally_.record(bit_identical(out.result, plain[k - first]), "traced run changes nothing");
      }
      slice.sinks_s += seconds_since(b0);

      // Pass C (per-layer run): benchmark probes on the same replications.
      if (opt_.trace) {
        for (std::uint64_t k = first; k < call; ++k) {
          const std::uint64_t r = replication(k);
          const bool record_spans = k <= kSpanReps;
          spans_.set_active(record_spans);
          const std::uint64_t rep_span = spans_.begin_rep(k);
          const obs::PhaseProfile before = probe_profile_;
          const AllocCounts a_before = alloc_counts();
          const Clock::time_point c0 = Clock::now();
          set_alloc_counting(true);
          const RepOutcome out =
              probed_runner_->run(seed_, r, RepSinks{nullptr, &probe_profile_});
          set_alloc_counting(false);
          const Clock::time_point c1 = Clock::now();
          const AllocCounts a_after = alloc_counts();
          allocs_.count += a_after.count - a_before.count;
          allocs_.bytes += a_after.bytes - a_before.bytes;
          if (record_spans) {
            const double start = spans_.since_origin_ns(c0);
            const double setup_ns = (probe_profile_.setup_s - before.setup_s) * 1e9;
            const double loop_ns = (probe_profile_.loop_s - before.loop_s) * 1e9;
            spans_.add_child("rep", start, elapsed_ns(c0, c1), 0);
            spans_.add_child("mc.setup", start, setup_ns, rep_span);
            spans_.add_child("mc.loop", start + setup_ns, loop_ns, rep_span);
          }
          spans_.set_active(false);
          tally_.record(bit_identical(out.result, plain[k - first]), "probes change nothing");
        }
      }

      for (std::uint64_t k = first; k < call; ++k) {
        const mc::RunResult& run = plain[k - first];
        if (k <= w_.rep_set) {  // the replication's first call
          check_rep(run);
          fold_.add(run.completion_time);
          set_results_.push_back(run);
        } else {
          tally_.record(bit_identical(run, set_results_[replication(k) - 1]),
                        "repeated replication changes nothing");
        }
        failures_ += run.failures;
        bundles_ += run.bundles_sent;
        moved_ += run.tasks_moved;
        completed_ += run.tasks_completed;
        lost_ += run.state_packets_lost;
      }
    }
    // Set-ups are spread over the run, so setup_s sees the same host as the
    // timed passes rather than only the first milliseconds of the run.
    set_up_batch(slice_s / 100, slice);
    slices_.push_back(slice);
    reps_ = call - 1;
    if (seconds_since(loop_begin) >= opt_.seconds && reps_ >= opt_.min_calls &&
        reps_ >= w_.rep_set) {
      break;
    }
  }
  rss_mb_ = peak_rss_mb();
}

double Bench::time_stream_ctor() const {
  // Constructs the streams replication r would, for consecutive r, and
  // reports the median per-stream cost over the per-replication batches.
  const std::uint64_t per_rep = w_.streams_per_rep();
  std::vector<lbsim::stoch::RngStream> streams;
  streams.reserve(per_rep);
  std::vector<double> per_stream_ns;
  std::uint64_t made = 0;
  std::uint64_t checksum = 0;
  for (std::uint64_t r = 1; made < 20000 || per_stream_ns.size() < 32; ++r) {
    streams.clear();
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t i = 0; i < per_rep; ++i) streams.emplace_back(seed_, r * per_rep + i);
    const Clock::time_point t1 = Clock::now();
    checksum += streams.back().next_u64();
    per_stream_ns.push_back(elapsed_ns(t0, t1) / static_cast<double>(per_rep));
    made += per_rep;
  }
  if (checksum == 0) std::cout << "# stream checksum 0\n";  // keeps the work observable
  return median(std::move(per_stream_ns));
}

double Bench::time_testbed_delay() {
  // The testbed builds its Erlang data-delay law inside run_realization, so
  // there is no seam to time it in place; replay the bundle sizes traced
  // replications send through the same law instead. The sizes are read here,
  // after the timed loop, so reading them costs no timed pass anything.
  std::vector<std::size_t> bundle_sizes;
  for (std::uint64_t r = 1; r <= w_.rep_set && bundle_sizes.size() < 10000; ++r) {
    mc::RunTrace trace;
    trace.record_queues = false;
    static_cast<void>(runner_.run(seed_, r, RepSinks{&trace}));
    trace.events.for_each([&bundle_sizes](const obs::Record& rec) {
      if (rec.kind == static_cast<std::uint32_t>(obs::Kind::kTransferSend)) {
        bundle_sizes.push_back(rec.count);
      }
    });
  }
  if (bundle_sizes.empty()) return 0.0;
  const net::ErlangPerTaskDelay law(w_.testbed_config.params.per_task_delay_mean,
                                    w_.testbed_config.transfer_setup_shift);
  lbsim::stoch::RngStream rng(seed_, ~0ULL);
  double sink = 0.0;
  std::uint64_t samples = 0;
  const Clock::time_point t0 = Clock::now();
  while (samples < 200000) {
    for (const std::size_t n : bundle_sizes) sink += law.sample(n, rng);
    samples += bundle_sizes.size();
  }
  const double ns = elapsed_ns(t0, Clock::now());
  if (sink < 0.0) std::cout << "# negative delay\n";  // keeps the work observable
  return ns / static_cast<double>(samples);
}

void Bench::end_to_end_metrics(std::vector<Metric>& out) const {
  double plain_s = 0.0;
  double sinks_s = 0.0;
  std::uint64_t events = 0;
  std::size_t setups = 0;
  std::vector<double> setup;
  for (const Slice& sl : slices_) {
    plain_s += sl.plain_s;
    sinks_s += sl.sinks_s;
    events += sl.events;
    setups += sl.setups;
    setup.push_back(sl.setup_s);
  }
  const double reps = static_cast<double>(reps_);
  const std::string calls = std::to_string(reps_) + " calls of replications 1.." +
                            std::to_string(w_.rep_set);
  const double error_rate = static_cast<double>(tally_.failed()) / static_cast<double>(reps_ + 1);
  out.push_back({"reps_per_s", reps / plain_s, "1/s", calls + " / pass-A seconds"});
  out.push_back({"ns_per_event", plain_s * 1e9 / static_cast<double>(events), "ns",
                 "pass-A ns / " + std::to_string(events) + " events (exact, from the traced pass)"});
  out.push_back({"rep_ms_p50", calls_.quantile(0.5) / 1e6, "ms", "median of " + calls});
  out.push_back({"rep_ms_p90", calls_.quantile(0.9) / 1e6, "ms",
                 "tail: p90 of " + calls + ", " + std::to_string(calls_.count_beyond(0.9)) +
                     " beyond it"});
  out.push_back({"setup_s", median(std::move(setup)), "s",
                 "median of the medians of " + std::to_string(slices_.size()) + " batches, " +
                     std::to_string(setups) + " set-ups (build + cold rep); first " +
                     json_number(first_.setup_s) + " s"});
  out.push_back({"peak_rss_mb", rss_mb_, "MiB", "VmHWM after the timed passes"});
  out.push_back({"traced_reps_per_s", reps / sinks_s, "1/s",
                 calls + " / pass-B seconds (trace+metrics+profile sinks)"});
  out.push_back({"check_pass_rate", std::max(0.0, 1.0 - error_rate), "ratio",
                 "1 - error_rate; error_rate " + json_number(error_rate) + " = " +
                     std::to_string(tally_.failed()) + " failed checks / " +
                     std::to_string(reps_ + 1) + " calls"});
}

void Bench::per_layer_metrics(std::vector<Metric>& out) {
  const double reps = static_cast<double>(reps_);
  std::uint64_t events = 0;
  std::vector<double> overhead, build_ms;
  for (const Slice& sl : slices_) {
    events += sl.events;
    overhead.push_back(sl.sinks_s / sl.plain_s - 1.0);
    build_ms.push_back(sl.build_ms);
  }
  const double policy_ns = policy_stats_.total_ns();
  const double start_ns = policy_stats_.ns[static_cast<std::size_t>(Hook::kStart)];
  const double setup_ns = probe_profile_.setup_s * 1e9;
  const double loop_ns = probe_profile_.loop_s * 1e9;
  const auto per_call_us = [this](Hook h) {
    const auto i = static_cast<std::size_t>(h);
    return policy_stats_.calls[i] == 0
               ? 0.0
               : policy_stats_.ns[i] / 1e3 / static_cast<double>(policy_stats_.calls[i]);
  };
  const bool mc_engine = w_.engine == Engine::kMc;
  const double delay_samples = mc_engine ? static_cast<double>(delay_stats_.samples)
                                         : static_cast<double>(bundles_);
  const double delay_ns_per_sample =
      mc_engine ? (delay_stats_.samples == 0
                       ? 0.0
                       : delay_stats_.ns / static_cast<double>(delay_stats_.samples))
                : time_testbed_delay();
  const double delay_ns = delay_samples * delay_ns_per_sample;
  const double scheduled =
      static_cast<double>(registry_.counters().count("des.events.scheduled")
                              ? registry_.counters().at("des.events.scheduled").value()
                              : 0);
  const double cancelled =
      static_cast<double>(registry_.counters().count("des.events.cancelled")
                              ? registry_.counters().at("des.events.cancelled").value()
                              : 0);
  const double max_depth = registry_.gauges().count("des.queue.max_depth")
                               ? registry_.gauges().at("des.queue.max_depth").value()
                               : 0.0;
  const double ev = static_cast<double>(events);
  const std::string per_rep = "over " + std::to_string(reps_) + " calls";

  out.push_back({"core.share", policy_ns / (setup_ns + loop_ns), "ratio",
                 "policy hook ns / replication (setup+loop) ns, probed pass"});
  out.push_back({"core.on_failure.us_per_call", per_call_us(Hook::kFailure), "us",
                 std::to_string(policy_stats_.calls[1]) + " calls"});
  out.push_back({"core.on_start.us_per_call", per_call_us(Hook::kStart), "us",
                 std::to_string(policy_stats_.calls[0]) + " calls"});
  out.push_back({"core.hook_calls_per_rep", static_cast<double>(policy_stats_.total_calls()) / reps,
                 "count", per_rep});
  out.push_back({"core.view_calls_per_hook",
                 policy_stats_.total_calls() == 0
                     ? 0.0
                     : static_cast<double>(policy_stats_.view_calls) /
                           static_cast<double>(policy_stats_.total_calls()),
                 "count", std::to_string(policy_stats_.view_calls) + " view calls"});
  out.push_back({"core.directive_yield",
                 policy_stats_.tasks_requested == 0
                     ? 0.0
                     : static_cast<double>(moved_) /
                           static_cast<double>(policy_stats_.tasks_requested),
                 "ratio", std::to_string(policy_stats_.tasks_requested) + " tasks requested"});
  out.push_back({"mc.setup_us_per_rep", setup_ns / 1e3 / reps, "us", per_rep});
  out.push_back({"mc.loop_us_per_rep", loop_ns / 1e3 / reps, "us", per_rep});
  out.push_back({"mc.allocs_per_rep", static_cast<double>(allocs_.count) / reps, "count",
                 per_rep});
  out.push_back({"mc.alloc_bytes_per_rep", static_cast<double>(allocs_.bytes) / reps, "bytes",
                 per_rep});
  out.push_back({"stochastic.streams_per_rep", static_cast<double>(w_.streams_per_rep()),
                 "count", "engine stream layout, mirrored by the benchmark, not measured"});
  out.push_back({"stochastic.stream_ctor_ns", time_stream_ctor(), "ns",
                 "median per-stream cost over per-replication batches"});
  out.push_back({"sim.events_per_rep", ev / reps, "count", per_rep});
  out.push_back({"sim.self_ns_per_event",
                 ev == 0.0 ? 0.0 : (loop_ns - (policy_ns - start_ns) - delay_ns) / ev, "ns",
                 "(loop - loop-time hooks - delay) / events"});
  out.push_back({"sim.cancelled_frac", scheduled == 0.0 ? 0.0 : cancelled / scheduled, "ratio",
                 "cancelled / scheduled"});
  out.push_back({"sim.max_queue_depth", max_depth, "count", "live-event high-water mark"});
  out.push_back({"net.delay.samples_per_rep", delay_samples / reps, "count",
                 mc_engine ? "TimedDelay" : "bundles sent (testbed Erlang law)"});
  out.push_back({"net.delay.ns_per_sample", delay_ns_per_sample, "ns",
                 mc_engine ? "TimedDelay, in place" : "replayed bundle sizes, offline"});
  out.push_back({"net.bundles_per_rep", static_cast<double>(bundles_) / reps, "count", per_rep});
  out.push_back({"net.tasks_moved_per_rep", static_cast<double>(moved_) / reps, "count",
                 per_rep});
  out.push_back({"net.state_loss_per_rep", static_cast<double>(lost_) / reps, "count", per_rep});
  out.push_back({"node.failures_per_rep", static_cast<double>(failures_) / reps, "count",
                 per_rep});
  out.push_back({"node.tasks_per_rep", static_cast<double>(completed_) / reps, "count",
                 per_rep});
  out.push_back({"cli.build_ms", median(std::move(build_ms)), "ms",
                 "median of the medians of " + std::to_string(slices_.size()) +
                     " set-up batches"});
  out.push_back({"obs.overhead_frac", median(overhead), "ratio",
                 "median of " + std::to_string(slices_.size()) + " paired slices"});
  out.push_back({"obs.records_per_rep", static_cast<double>(records_) / reps, "count",
                 per_rep});
}

int Bench::run() {
  std::cout << "# hostbench workload=" << w_.name << " seed=" << opt_.seed << " master_seed=0x"
            << std::hex << seed_ << std::dec << " threads=1 nproc=" << sysconf(_SC_NPROCESSORS_ONLN)
            << " compiler=\"gcc " << __VERSION__ << "\" git=" << opt_.git_rev
            << " mode=" << (opt_.trace ? "per-layer" : "end-to-end") << " seconds=" << opt_.seconds
            << " loop=closed (one caller, next replication after the previous returns)\n";

  check_rep(first_.cold);
  fold_.add(first_.cold.completion_time);
  if (opt_.trace) install_probes();
  loop();

  // Fold matches the engine: the same replications through the engine's own
  // single-thread driver must give the same mean and variance, bit for bit.
  const lbsim::stoch::RunningStats engine = engine_fold(w_, seed_, w_.rep_set + 1);
  tally_.record(fold_matches(fold_, engine), "fold matches the engine");
  std::cout << "# fold: reps=" << fold_.count() << " mean=" << json_number(fold_.mean())
            << " engine_mean=" << json_number(engine.mean()) << "\n";
  if (const std::optional<double> exact = exact_mean(w_)) {
    const Accuracy acc = accuracy(fold_, *exact);
    tally_.record(acc.ok, "accuracy vs exact solver");
    std::cout << "# accuracy: mean=" << json_number(fold_.mean()) << " exact=" << json_number(*exact)
              << " error_s=" << json_number(acc.error) << " z=" << json_number(acc.z)
              << " (gate |z| <= 4)\n";
  }

  std::vector<Metric> metrics;
  if (opt_.trace) {
    per_layer_metrics(metrics);
    std::filesystem::create_directories(opt_.spans_dir);
    const std::string path = opt_.spans_dir + "/" + w_.name + "-seed" +
                             std::to_string(opt_.seed) + ".trace.json";
    if (spans_.write_chrome_trace(path)) {
      std::cout << "# spans: " << spans_.spans().size() << " written to " << path << "\n";
    }
  } else {
    end_to_end_metrics(metrics);
    // The host's speed over the run, slice by slice, for reading a drift.
    std::cout << "# slices (pass-A calls/s):";
    for (const Slice& sl : slices_) {
      std::cout << " " << json_number(static_cast<double>(sl.reps) / sl.plain_s);
    }
    std::cout << "\n";
    // Sample counts for hostbench/run.py, which pools several processes.
    std::cout << "# totals calls=" << reps_ << " beyond_p90=" << calls_.count_beyond(0.9)
              << " setups=" << setups_ + 1 << "\n";
  }
  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << " = " << json_number(m.value) << " " << m.unit << "  ["
              << m.note << "]\n";
  }
  for (const std::string& message : tally_.messages()) std::cout << "# FAILED: " << message << "\n";
  std::cout << "# checks: attempted=" << tally_.attempted() << " failed=" << tally_.failed()
            << "\n";

  std::cout << "{\"correct\": " << (tally_.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << tally_.attempted() << ", \"failed\": " << tally_.failed()
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << json_number(metrics[i].value) << ", \"unit\": \""
              << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) {
  using namespace hostbench;
  const Options options = parse_options(argc, argv);
  try {
    Bench bench(options, set_up(options.workload, master_seed(options.seed), 0));
    return bench.run();
  } catch (const std::exception& e) {
    std::cerr << "hostbench: " << e.what() << "\n";
    return 1;
  }
}
