#include "probes.hpp"

#include <fstream>

namespace hostbench {

SpanRecorder::SpanRecorder(std::size_t capacity) : capacity_(capacity) {
  spans_.reserve(capacity);
}

std::uint64_t SpanRecorder::begin_rep(std::uint64_t rep) noexcept {
  rep_ = rep;
  rep_span_ = next_id_++;
  return rep_span_;
}

void SpanRecorder::add(const char* name, Clock::time_point begin, Clock::time_point end) {
  if (!active_) return;
  add_child(name, since_origin_ns(begin), elapsed_ns(begin, end), rep_span_);
}

void SpanRecorder::add_child(const char* name, double start_ns, double dur_ns,
                             std::uint64_t parent) {
  if (!active_) return;
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  // The replication span itself carries its own id; children get fresh ones.
  const bool is_rep = parent == 0;
  spans_.push_back(Span{name, start_ns, dur_ns, is_rep ? rep_span_ : next_id_++, parent, rep_});
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_spans\":" << dropped_
      << "},\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans_) {
    out << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.rep << ",\"ts\":" << s.start_ns / 1e3
        << ",\"dur\":" << s.dur_ns / 1e3 << ",\"args\":{\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"rep\":" << s.rep << "}}";
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::uint64_t PolicyStats::total_calls() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t c : calls) total += c;
  return total;
}

double PolicyStats::total_ns() const noexcept {
  double total = 0.0;
  for (const double t : ns) total += t;
  return total;
}

std::size_t CountingView::node_count() const {
  ++calls_;
  return inner_.node_count();
}

std::size_t CountingView::queue_length(int node) const {
  ++calls_;
  return inner_.queue_length(node);
}

bool CountingView::is_up(int node) const {
  ++calls_;
  return inner_.is_up(node);
}

markov::NodeParams CountingView::node_params(int node) const {
  ++calls_;
  return inner_.node_params(node);
}

double CountingView::per_task_delay_mean() const {
  ++calls_;
  return inner_.per_task_delay_mean();
}

std::size_t CountingView::neighbor_count(int node) const {
  ++calls_;
  return inner_.neighbor_count(node);
}

int CountingView::neighbor(int node, std::size_t k) const {
  ++calls_;
  return inner_.neighbor(node, k);
}

namespace {

constexpr const char* kHookSpanNames[kHookCount] = {"core.on_start", "core.on_failure",
                                                    "core.on_recovery", "core.on_periodic"};

}  // namespace

template <typename Call>
std::vector<core::TransferDirective> TimedPolicy::timed(Hook hook,
                                                        const core::SystemView& view,
                                                        Call&& call) {
  const CountingView counting(view, stats_.view_calls);
  const Clock::time_point begin = Clock::now();
  std::vector<core::TransferDirective> directives = call(counting);
  const Clock::time_point end = Clock::now();
  const auto h = static_cast<std::size_t>(hook);
  stats_.calls[h] += 1;
  stats_.ns[h] += elapsed_ns(begin, end);
  for (const core::TransferDirective& d : directives) stats_.tasks_requested += d.count;
  if (stats_.spans != nullptr) stats_.spans->add(kHookSpanNames[h], begin, end);
  return directives;
}

std::vector<core::TransferDirective> TimedPolicy::on_start(const core::SystemView& view) {
  return timed(Hook::kStart, view,
               [this](const core::SystemView& v) { return inner_->on_start(v); });
}

std::vector<core::TransferDirective> TimedPolicy::on_failure(int node,
                                                             const core::SystemView& view) {
  return timed(Hook::kFailure, view,
               [this, node](const core::SystemView& v) { return inner_->on_failure(node, v); });
}

std::vector<core::TransferDirective> TimedPolicy::on_recovery(int node,
                                                              const core::SystemView& view) {
  return timed(Hook::kRecovery, view, [this, node](const core::SystemView& v) {
    return inner_->on_recovery(node, v);
  });
}

std::vector<core::TransferDirective> TimedPolicy::on_periodic(const core::SystemView& view) {
  return timed(Hook::kPeriodic, view,
               [this](const core::SystemView& v) { return inner_->on_periodic(v); });
}

core::PolicyPtr TimedPolicy::clone() const {
  return std::make_unique<TimedPolicy>(inner_->clone(), stats_);
}

double TimedDelay::sample(std::size_t n_tasks, stoch::RngStream& rng) const {
  const Clock::time_point begin = Clock::now();
  const double delay = inner_.sample(n_tasks, rng);
  const Clock::time_point end = Clock::now();
  stats_.samples += 1;
  stats_.ns += elapsed_ns(begin, end);
  if (stats_.spans != nullptr) stats_.spans->add("net.delay.sample", begin, end);
  return delay;
}

net::TransferDelayModelPtr TimedDelay::clone() const {
  return std::make_unique<TimedDelay>(inner_.per_task_mean(), stats_);
}

}  // namespace hostbench
