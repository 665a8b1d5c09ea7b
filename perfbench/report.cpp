#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "perfbench/bench.h"
#include "src/obs/json.h"

namespace perfbench {

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric the traced run reports, in print order. Counts
/// and times are per aggregate unless the name says otherwise.
constexpr LayerMetric kLayerMetrics[] = {
    {"runner.setup.votes_s", "s"},
    {"runner.setup.hierarchy_s", "s"},
    {"runner.setup.audit_s", "s"},
    {"runner.setup.arena_s", "s"},
    {"runner.setup.nodes_s", "s"},
    {"net.udp.bind_s", "s"},
    {"sim.self_s", "s"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.peak_pending", "count"},
    {"net.send_s", "s"},
    {"net.sends", "count"},
    {"net.ns_per_send", "ns"},
    {"net.bytes_per_msg", "bytes"},
    {"net.loss_frac", "fraction"},
    {"net.dead", "count"},
    {"net.malformed", "count"},
    {"protocols.round_s", "s"},
    {"protocols.rounds", "count"},
    {"protocols.recv_s", "s"},
    {"protocols.recvs", "count"},
    {"protocols.check_s", "s"},
    {"protocols.measure_s", "s"},
    {"protocols.useful_recv_frac", "fraction"},
    {"membership.crash_clock_s", "s"},
    {"net.udp.user_s_per_aggregate", "s"},
    {"net.udp.sys_s_per_aggregate", "s"},
    {"net.udp.polls", "count"},
    {"net.udp.datagrams_per_poll", "count"},
    {"net.udp.timers_fired", "count"},
    {"net.udp.eintr_retries", "count"},
    {"net.reactor.timer_lateness_p50_us", "us"},
    {"net.reactor.timer_lateness_p99_us", "us"},
    {"net.reactor.drain_per_wake_p50", "count"},
    {"net.reactor.post_queue_hw", "count"},
    {"service.mux.delivered", "count"},
    {"service.mux.drop_frac", "fraction"},
    {"service.mux.closed_sends", "count"},
    {"service.deferred_frac", "fraction"},
    {"service.launch_lag_p90_ms", "ms"},
    {"service.in_flight_hw", "count"},
    {"obs.trace_overhead_frac", "fraction"},
    {"obs.unattributed_frac", "fraction"},
};

/// Quantile of a gridbox log2 histogram (bucket 0 = zeros, bucket b holds
/// [2^(b-1), 2^b)), interpolated linearly inside the bucket.
double log2_hist_quantile(const std::vector<double>& buckets, double q) {
  double total = 0.0;
  for (const double b : buckets) total += b;
  if (total <= 0.0) return 0.0;
  const double rank = q * total;
  double seen = 0.0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] <= 0.0 || seen + buckets[b] < rank) {
      seen += buckets[b];
      continue;
    }
    if (b == 0) return 0.0;
    const double lo = std::ldexp(1.0, static_cast<int>(b) - 1);
    return lo + lo * (rank - seen) / buckets[b];  // bucket spans [lo, 2 lo)
  }
  return std::ldexp(1.0, static_cast<int>(buckets.size()) - 1);
}

/// Adds histogram `from` into `into` bucket by bucket.
void add_buckets(std::vector<double>& into, const gridbox::obs::JsonValue* from) {
  if (from == nullptr || !from->is_array()) return;
  if (into.size() < from->array.size()) into.resize(from->array.size(), 0.0);
  for (std::size_t b = 0; b < from->array.size(); ++b) {
    into[b] += from->array[b].number;
  }
}

}  // namespace

void Report::fail(const std::string& why) {
  correct = false;
  ++failed;
  if (failed <= 3) notes.push_back("FAILED: " + why);
}

std::string measurement_problem(const gridbox::protocols::RunMeasurement& m) {
  if (m.finished_nodes != m.survivors) {
    return std::to_string(m.survivors - m.finished_nodes) + " of " +
           std::to_string(m.survivors) + " survivors never finished";
  }
  if (m.audit_violations != 0) {
    return std::to_string(m.audit_violations) + " audit violations";
  }
  if (m.reconstruction_failures != 0) {
    return std::to_string(m.reconstruction_failures) +
           " estimates do not reconstruct from their audited votes";
  }
  return {};
}

CpuTimes cpu_now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(usage.ru_utime), secs(usage.ru_stime)};
}

CpuTimes operator-(const CpuTimes& a, const CpuTimes& b) {
  return {a.user_s - b.user_s, a.sys_s - b.sys_s};
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::uint64_t input_seed(std::uint64_t seed, std::uint64_t i) {
  // splitmix64 of (seed, i): distinct, well-mixed seeds per input.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + (i + 1) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::size_t udp_shards() {
  const unsigned cpus = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(cpus == 0 ? 1 : cpus, 1, 4);
}

void EndToEnd::report(Report& report, const CpuTimes& cpu) const {
  const double completed = static_cast<double>(latencies_ms.size());
  report.add("wall_s", median(walls), "s");
  report.add("cpu_s_per_aggregate", ratio(cpu.total(), completed), "s");
  report.add("latency_p50_ms", quantile(latencies_ms, 0.5), "ms");
  report.add("latency_p90_ms", quantile(latencies_ms, 0.9), "ms");
  report.add("completeness", mean(completeness), "fraction");
  report.add("msgs_per_member", mean(msgs_per_member), "count");
}

void NetTotals::add(const gridbox::net::NetworkStats& stats) {
  sends += static_cast<double>(stats.messages_sent);
  bytes += static_cast<double>(stats.bytes_sent);
  dropped += static_cast<double>(stats.messages_dropped);
  dead += static_cast<double>(stats.messages_dead_dest);
  malformed += static_cast<double>(stats.messages_malformed);
}

void NetTotals::report(Report& report, double aggregates) const {
  report.add("net.sends", ratio(sends, aggregates), "count");
  report.add("net.bytes_per_msg", ratio(bytes, sends), "bytes");
  report.add("net.loss_frac", ratio(dropped, sends), "fraction");
  report.add("net.dead", ratio(dead, aggregates), "count");
  report.add("net.malformed", ratio(malformed, aggregates), "count");
}

void ReactorTotals::add(const CpuTimes& cpu, std::uint64_t polls,
                        std::uint64_t timers_fired, std::uint64_t eintr_retries,
                        const std::string& telemetry) {
  user_s_ += cpu.user_s;
  sys_s_ += cpu.sys_s;
  polls_ += static_cast<double>(polls);
  timers_ += static_cast<double>(timers_fired);
  eintr_ += static_cast<double>(eintr_retries);
  // The closing record (the last line) holds the run's cumulative lanes.
  const std::size_t end = telemetry.find_last_not_of('\n');
  if (end == std::string::npos) return;
  const std::size_t begin = telemetry.rfind('\n', end);
  const std::size_t first = begin == std::string::npos ? 0 : begin + 1;
  const gridbox::obs::JsonValue record =
      gridbox::obs::json_parse(telemetry.substr(first, end + 1 - first));
  if (const gridbox::obs::JsonValue* total = record.find("total")) {
    frames_ += total->number_or("frames", 0);
    post_queue_hw_ =
        std::max(post_queue_hw_, total->number_or("queue_depth_hw", 0));
    add_buckets(lateness_us_, total->find("lateness_us"));
    add_buckets(drain_per_wake_, total->find("drain_per_wake"));
  }
  if (const gridbox::obs::JsonValue* service = record.find("service")) {
    in_flight_hw_ = std::max(in_flight_hw_, service->number_or("in_flight_hw", 0));
  }
}

void ReactorTotals::report(Report& report, double aggregates) const {
  report.add("net.udp.user_s_per_aggregate", ratio(user_s_, aggregates), "s");
  report.add("net.udp.sys_s_per_aggregate", ratio(sys_s_, aggregates), "s");
  report.add("net.udp.polls", ratio(polls_, aggregates), "count");
  report.add("net.udp.datagrams_per_poll", ratio(frames_, polls_), "count");
  report.add("net.udp.timers_fired", ratio(timers_, aggregates), "count");
  report.add("net.udp.eintr_retries", ratio(eintr_, aggregates), "count");
  report.add("net.reactor.timer_lateness_p50_us",
             log2_hist_quantile(lateness_us_, 0.5), "us");
  report.add("net.reactor.timer_lateness_p99_us",
             log2_hist_quantile(lateness_us_, 0.99), "us");
  report.add("net.reactor.drain_per_wake_p50",
             log2_hist_quantile(drain_per_wake_, 0.5), "count");
  report.add("net.reactor.post_queue_hw", post_queue_hw_, "count");
}

void fill_absent_layers(Report& report, const std::string& workload) {
  std::string absent;
  for (const LayerMetric& layer : kLayerMetrics) {
    const bool present =
        std::any_of(report.metrics.begin(), report.metrics.end(),
                    [&](const Metric& m) { return m.name == layer.name; });
    if (present) continue;
    report.add(layer.name, 0.0, layer.unit);
    absent += absent.empty() ? "" : " ";
    absent += layer.name;
  }
  // Keep the table in the declared order whatever order the workload used.
  std::vector<Metric> ordered;
  for (const LayerMetric& layer : kLayerMetrics) {
    for (const Metric& m : report.metrics) {
      if (m.name == layer.name) ordered.push_back(m);
    }
  }
  report.metrics = std::move(ordered);
  if (!absent.empty()) {
    report.notes.push_back("layers that do not run on " + workload +
                           " (reported as 0): " + absent);
  }
}

void print_report(const Report& report) {
  for (const std::string& note : report.notes) std::printf("# %s\n", note.c_str());
  std::printf("# attempted %llu, failed %llu, correct %s\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              report.correct ? "true" : "false");
  for (const Metric& m : report.metrics) {
    std::printf("# %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  gridbox::obs::JsonWriter w;
  w.begin_object();
  w.key("correct").value(report.correct);
  w.key("attempted").value(report.attempted);
  w.key("failed").value(report.failed);
  w.key("metrics").begin_object();
  for (const Metric& m : report.metrics) {
    w.key(m.name).begin_object();
    w.key("value").value(std::isfinite(m.value) ? m.value : 0.0);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.text().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
