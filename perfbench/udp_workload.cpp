// udp_hier_n1000: one hier-gossip aggregation over real loopback UDP
// (runner::run_udp_experiment) with the paper's §7 adversity (loss 0.25,
// pf 0.001, K = 4, M = 2): N = 1000 member sockets on udp_shards() reactor
// threads, loss through the userspace send shim, no injected delay, audit
// and invariant checking on.
//
// The traced run arms ExperimentConfig::telemetry with an in-memory sink
// and reads the lanes' counters and log2 histograms from the closing
// record; the user/sys split comes from getrusage around each call. It
// also runs each input's simulated twin (SimLayers) for the simulator,
// protocol and membership layer times.

#include <map>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/runner/udp_runtime.h"

namespace perfbench {

namespace {

using namespace gridbox;

runner::UdpRunConfig udp_config(std::uint64_t seed) {
  runner::UdpRunConfig config;
  config.experiment.group_size = 1000;
  config.experiment.audit = true;
  config.experiment.check_invariants = true;
  config.experiment.seed = seed;
  config.port_base = kRunPortBase;
  config.shards = udp_shards();
  return config;
}

/// World builds and 1000-socket binds timed before each measured aggregate
/// (about 100 in a 55 s untraced run).
constexpr std::size_t kSetupPerUnit = 1;

/// Why a UDP aggregate is wrong, or empty. Ground truth is deterministic in
/// the seed, so every repeat of an input must agree on the true value.
std::string udp_problem(const runner::UdpRunResult& result, std::uint64_t seed,
                        std::map<std::uint64_t, double>& truths) {
  if (!result.completed) return "aggregate missed its deadline";
  if (result.invariant_violations != 0) {
    return std::to_string(result.invariant_violations) +
           " invariant violations, first: " + result.first_violation;
  }
  const auto [it, first] = truths.emplace(seed, result.measurement.true_value);
  if (!first && it->second != result.measurement.true_value) {
    return "true value differs between two runs of seed " + std::to_string(seed);
  }
  return measurement_problem(result.measurement);
}

void run_untraced(const Options& options, Report& report) {
  SetupProbe setup(udp_config(0).experiment, options.seed, true);
  std::map<std::uint64_t, double> truths;
  EndToEnd samples;
  const CpuTimes cpu_start = cpu_now();
  const RunClock clock(options.seconds);
  for (std::uint64_t i = 0; clock.more(i); ++i) {
    setup.sample(kSetupPerUnit);
    const runner::UdpRunConfig config =
        udp_config(input_seed(options.seed, i % kInputsPerRun));
    ++report.attempted;
    try {
      const auto t = Clock::now();
      const runner::UdpRunResult result = runner::run_udp_experiment(config);
      const double wall = seconds_since(t);
      const std::string problem =
          udp_problem(result, config.experiment.seed, truths);
      if (!problem.empty()) {
        report.fail(problem);
        continue;
      }
      samples.walls.push_back(wall);
      samples.latencies_ms.push_back(static_cast<double>(result.elapsed.ticks()) / 1e3);
      samples.completeness.push_back(result.measurement.mean_completeness);
      samples.msgs_per_member.push_back(
          static_cast<double>(result.network.messages_sent) /
          static_cast<double>(config.experiment.group_size));
    } catch (const std::exception& e) {
      report.fail(e.what());
    }
  }
  const CpuTimes cpu = cpu_now() - cpu_start - setup.cpu();
  report.notes.push_back("latency samples: " + std::to_string(samples.walls.size()) +
                         " (elapsed time of each aggregate)");
  setup.report(report, false);
  samples.report(report, cpu);
}

void run_traced(const Options& options, Report& report) {
  SetupProbe setup(udp_config(0).experiment, options.seed, true);
  std::map<std::uint64_t, double> truths;
  std::vector<double> plain_walls, traced_walls;
  NetTotals net;
  ReactorTotals reactor;
  SimLayers sim;
  const RunClock clock(options.seconds);
  // Alternate untraced and traced calls on the same input, so the tracing
  // overhead compares like with like.
  for (std::uint64_t i = 0; i % 2 == 1 || clock.more(i / 2); ++i) {
    const bool traced = i % 2 == 1;
    runner::UdpRunConfig config =
        udp_config(input_seed(options.seed, (i / 2) % kInputsPerRun));
    if (!traced) {
      setup.sample(kSetupPerUnit);
      sim.add(config.experiment, report);
    }
    std::string sink;
    if (traced) {
      config.experiment.telemetry.enabled = true;
      config.experiment.telemetry.sink = &sink;
    }
    ++report.attempted;
    try {
      const CpuTimes cpu_start = cpu_now();
      const auto t = Clock::now();
      const runner::UdpRunResult result = runner::run_udp_experiment(config);
      const double wall = seconds_since(t);
      const CpuTimes cpu = cpu_now() - cpu_start;
      const std::string problem =
          udp_problem(result, config.experiment.seed, truths);
      if (!problem.empty()) {
        report.fail(problem);
        continue;
      }
      if (!traced) {
        plain_walls.push_back(wall);
        continue;
      }
      traced_walls.push_back(wall);
      net.add(result.network);
      reactor.add(cpu, result.polls, result.timers_fired, result.eintr_retries,
                  sink);
    } catch (const std::exception& e) {
      report.fail(e.what());
    }
  }
  report.notes.push_back("traced aggregates: " +
                         std::to_string(traced_walls.size()) + ", untraced: " +
                         std::to_string(plain_walls.size()));
  const double n = static_cast<double>(traced_walls.size());
  setup.report(report, true);
  net.report(report, n);
  reactor.report(report, n);
  sim.report(report);
  report.add("obs.trace_overhead_frac",
             median(traced_walls) / median(plain_walls) - 1.0, "fraction");
}

}  // namespace

void run_udp_hier(const Options& options, Report& report) {
  if (options.trace) {
    run_traced(options, report);
  } else {
    run_untraced(options, report);
  }
}

}  // namespace perfbench
