// Shared pieces of the end-to-end benchmark program: options, the report
// every workload fills, small statistics helpers, and the workload entry
// points. See perfbench/README.md for the workloads and the metric list.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/net/stats.h"
#include "src/protocols/protocol_stats.h"
#include "src/runner/config.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark invocation found. `correct` is false as soon as any
/// output check fails; `failed` counts aggregates that failed a check.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result (sample counts,
  /// first failure, workloads a layer does not run on).
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a failed check; the first few reasons are kept as notes.
  void fail(const std::string& why);
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Paces a measured loop to about `seconds`: another unit of work (an
/// aggregate, or an untraced/traced pair) starts only while the mean unit so
/// far still fits, and the first always runs.
class RunClock {
 public:
  explicit RunClock(double seconds) : seconds_(seconds) {}
  [[nodiscard]] bool more(std::uint64_t done) const {
    if (done == 0) return true;
    const double elapsed = seconds_since(start_);
    return elapsed * static_cast<double>(done + 1) /
               static_cast<double>(done) <= seconds_;
  }

 private:
  double seconds_;
  Clock::time_point start_ = Clock::now();
};

/// Process CPU time (all threads) from getrusage.
struct CpuTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
  [[nodiscard]] double total() const { return user_s + sys_s; }
};
[[nodiscard]] CpuTimes cpu_now();
[[nodiscard]] CpuTimes operator-(const CpuTimes& a, const CpuTimes& b);

/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mb();

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& values);

/// a / b, or 0 when nothing was counted in b.
[[nodiscard]] inline double ratio(double a, double b) {
  return b > 0 ? a / b : 0.0;
}

/// Why a finished aggregate is wrong, or empty when it passes: every
/// survivor delivered an estimate, no vote was counted twice, and every
/// estimate is the exact aggregate of the votes it claims.
[[nodiscard]] std::string measurement_problem(
    const gridbox::protocols::RunMeasurement& m);

/// Seed of the i-th aggregate input drawn from the benchmark seed.
[[nodiscard]] std::uint64_t input_seed(std::uint64_t seed, std::uint64_t i);

/// Distinct inputs a run cycles through; every input repeats, so its
/// deterministic outputs (the UDP ground truth, the simulated twin's
/// fingerprints) can be checked for equality.
inline constexpr std::uint64_t kInputsPerRun = 3;

/// Reactor shards of the UDP workloads: 4, never more than the host's CPUs.
[[nodiscard]] std::size_t udp_shards();

/// Loopback port windows, disjoint from the ones tests/ and tools/ use
/// (38000-50000) and below the kernel's ephemeral range: the measured runs
/// bind member m at kRunPortBase + m, the set-up probe at kSetupPortBase + m.
inline constexpr std::uint16_t kRunPortBase = 26000;
inline constexpr std::uint16_t kSetupPortBase = 22000;

/// Repeated world builds through the runner/world_setup.h functions
/// (cycling the run's input seeds) and, when `bind_sockets`, binds of the N
/// member sockets on udp_shards() reactors. A run samples a few builds
/// before each measured unit, so set-up is timed across the whole run, on
/// the same host as the rest of it, not in one burst before it starts.
class SetupProbe {
 public:
  SetupProbe(const gridbox::runner::ExperimentConfig& config,
             std::uint64_t seed, bool bind_sockets);

  /// Times `repetitions` more builds.
  void sample(std::size_t repetitions);
  /// Process CPU time the samples took, kept out of cpu_s_per_aggregate.
  [[nodiscard]] CpuTimes cpu() const { return cpu_; }
  /// Adds the setup_s metric (trace off) or the runner.setup.* and
  /// net.udp.bind_s metrics (trace on): medians over every sample.
  void report(Report& report, bool trace) const;

 private:
  gridbox::runner::ExperimentConfig config_;
  std::uint64_t seed_;
  bool bind_sockets_;
  CpuTimes cpu_;
  std::vector<double> votes_, hierarchy_, audit_, arena_, nodes_, bind_,
      total_;
};

/// Adds every per-layer metric that the workload has not set, as
/// 0, and notes that the layer does not run on this workload.
void fill_absent_layers(Report& report, const std::string& workload);

/// Samples of an untraced run: one wall time per aggregate (per stream on
/// the service), one latency, completeness and cost per completed aggregate.
struct EndToEnd {
  std::vector<double> walls, latencies_ms, completeness, msgs_per_member;

  /// Adds the end-to-end metrics but setup_s, success_frac and peak_rss_mb;
  /// `cpu` is the process CPU time over the measured loop.
  void report(Report& report, const CpuTimes& cpu) const;
};

/// Transport counters summed over the traced aggregates of a run.
struct NetTotals {
  double sends = 0, bytes = 0, dropped = 0, dead = 0, malformed = 0;

  void add(const gridbox::net::NetworkStats& stats);
  /// Adds the net.* counters per aggregate and the loss fraction.
  void report(Report& report, double aggregates) const;
};

/// Reactor-side figures of traced UDP runs, summed over aggregates: CPU
/// split, reactor counters, and the telemetry lanes' closing record.
class ReactorTotals {
 public:
  /// `telemetry` is the in-memory sink of a run with telemetry armed.
  void add(const CpuTimes& cpu, std::uint64_t polls, std::uint64_t timers_fired,
           std::uint64_t eintr_retries, const std::string& telemetry);
  /// Adds the net.udp.* metrics per aggregate and the net.reactor.* ones.
  void report(Report& report, double aggregates) const;
  /// High-water of the service window (service runs only).
  [[nodiscard]] double in_flight_hw() const { return in_flight_hw_; }

 private:
  double user_s_ = 0, sys_s_ = 0, polls_ = 0, frames_ = 0, timers_ = 0,
         eintr_ = 0, post_queue_hw_ = 0, in_flight_hw_ = 0;
  std::vector<double> lateness_us_, drain_per_wake_;
};

/// Per-layer times of the simulator, protocol and membership layers,
/// summed over simulated twins of a workload's aggregates
/// (sim_layers.cpp). UDP runs are not decorated, so these layers are timed
/// where they run single-threaded: on the simulator, at the same
/// ExperimentConfig.
class SimLayers {
 public:
  SimLayers();
  ~SimLayers();
  SimLayers(const SimLayers&) = delete;
  SimLayers& operator=(const SimLayers&) = delete;

  /// Runs `config` with runner::run_experiment and then traced, as one
  /// attempted aggregate. It fails when the two disagree on sim_events,
  /// messages or completeness, when a repeated seed does not repeat its
  /// sim_events and messages, when the exclusive layer times miss the
  /// traced wall by more than 5%, or when measurement_problem finds one.
  void add(const gridbox::runner::ExperimentConfig& config, Report& report);
  /// Adds sim.*, net.send_s, net.ns_per_send, protocols.*,
  /// membership.crash_clock_s and obs.unattributed_frac.
  void report(Report& report) const;

 private:
  struct Totals;
  std::unique_ptr<Totals> totals_;
};

void run_udp_hier(const Options& options, Report& report);
void run_udp_service(const Options& options, Report& report);

/// Prints the notes and a metric table, then the one-line JSON result.
void print_report(const Report& report);

}  // namespace perfbench
