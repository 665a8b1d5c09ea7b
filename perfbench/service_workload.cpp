// udp_service_n100: an open-loop stream of aggregations over real loopback
// UDP (service::run_udp_service). Instance i of a stream is due at
// i x 40 ms (25 epochs/s offered), with at most 16 in flight, N = 100,
// udp_shards() reactors, paper loss through the send shim and no crashes,
// audit on.
//
// Latency is timed from each epoch's due time, not from its launch, so a
// deferred launch counts its wait (no coordinated omission); how late the
// generator ran is reported separately as the launch lag.

#include <algorithm>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/service/udp_service.h"

namespace perfbench {

namespace {

using namespace gridbox;

constexpr std::size_t kEpochs = 128;
constexpr SimTime kEpochInterval = SimTime::millis(40);
constexpr std::size_t kWindow = 16;
/// World builds and 100-socket binds timed before each measured stream
/// (about 400 in a 55 s untraced run).
constexpr std::size_t kSetupPerUnit = 40;

service::UdpServiceConfig service_config(std::uint64_t seed) {
  service::UdpServiceConfig config;
  config.service.experiment.group_size = 100;
  config.service.experiment.audit = true;
  config.service.experiment.check_invariants = true;
  // Crash without recovery would shrink the shared group by ~40% over a
  // 5 s stream (pf per member per 10 ms round), so the stream would never
  // reach a steady state; the service runs with loss only.
  config.service.experiment.crash_probability = 0.0;
  config.service.experiment.seed = seed;
  config.service.instances = kEpochs;
  config.service.epoch_interval = kEpochInterval;
  config.service.max_in_flight = kWindow;
  config.port_base = kRunPortBase;
  config.shards = udp_shards();
  return config;
}

[[nodiscard]] double due_ms(const service::InstanceResult& instance,
                            SimTime at) {
  const SimTime due = SimTime::micros(static_cast<SimTime::underlying>(
      instance.id * kEpochInterval.ticks()));
  return static_cast<double>((at - due).ticks()) / 1e3;
}

/// Checks every instance of a stream. The instances that pass add their
/// latency, completeness and cost to `samples` and their launch lag to
/// `lags_ms`; the others count as failed.
void check_stream(const service::UdpServiceResult& result, Report& report,
                  EndToEnd& samples, std::vector<double>& lags_ms) {
  report.attempted += kEpochs;
  const auto& instances = result.result.instances;
  for (std::size_t i = instances.size(); i < kEpochs; ++i) {
    report.fail("stream resolved only " + std::to_string(instances.size()) +
                " of " + std::to_string(kEpochs) + " instances");
  }
  for (const service::InstanceResult& instance : instances) {
    std::string problem;
    if (!instance.completed) {
      problem = "instance " + std::to_string(instance.id) +
                " missed its deadline";
    } else if (instance.invariant_violations != 0) {
      problem = "instance " + std::to_string(instance.id) + ": " +
                std::to_string(instance.invariant_violations) +
                " invariant violations, first: " + instance.first_violation;
    } else if (const std::string m = measurement_problem(instance.measurement);
               !m.empty()) {
      problem = "instance " + std::to_string(instance.id) + ": " + m;
    }
    if (!problem.empty()) {
      report.fail(problem);
      continue;
    }
    samples.latencies_ms.push_back(due_ms(instance, instance.completed_at));
    lags_ms.push_back(due_ms(instance, instance.launched_at));
    samples.completeness.push_back(instance.measurement.mean_completeness);
    samples.msgs_per_member.push_back(
        static_cast<double>(instance.network.messages_sent) /
        static_cast<double>(std::max<std::size_t>(1, instance.participants)));
  }
}

void run_untraced(const Options& options, Report& report) {
  SetupProbe setup(service_config(0).service.experiment, options.seed, true);
  EndToEnd samples;
  std::vector<double> lags_ms;
  const CpuTimes cpu_start = cpu_now();
  const RunClock clock(options.seconds);
  for (std::uint64_t i = 0; clock.more(i); ++i) {
    setup.sample(kSetupPerUnit);
    const service::UdpServiceConfig config =
        service_config(input_seed(options.seed, i % kInputsPerRun));
    try {
      const auto t = Clock::now();
      const service::UdpServiceResult result = service::run_udp_service(config);
      samples.walls.push_back(seconds_since(t));
      check_stream(result, report, samples, lags_ms);
    } catch (const std::exception& e) {
      report.attempted += kEpochs;
      report.fail(e.what());
    }
  }
  const CpuTimes cpu = cpu_now() - cpu_start - setup.cpu();
  setup.report(report, false);
  report.notes.push_back(
      "latency samples: " + std::to_string(samples.latencies_ms.size()) +
      " epochs over " + std::to_string(samples.walls.size()) +
      " streams (due time to completion)");
  samples.report(report, cpu);
}

void run_traced(const Options& options, Report& report) {
  SetupProbe setup(service_config(0).service.experiment, options.seed, true);
  std::vector<double> plain_walls, traced_walls, lags_ms;
  EndToEnd checked;  // reported by the untraced run; here only checked
  NetTotals net;
  ReactorTotals reactor;
  double delivered = 0, dropped_demux = 0, closed_sends = 0, deferred = 0,
         launched = 0, instances = 0;
  const RunClock clock(options.seconds);
  // Alternate untraced and traced streams on the same input.
  for (std::uint64_t i = 0; i % 2 == 1 || clock.more(i / 2); ++i) {
    const bool traced = i % 2 == 1;
    if (!traced) setup.sample(kSetupPerUnit);
    service::UdpServiceConfig config =
        service_config(input_seed(options.seed, (i / 2) % kInputsPerRun));
    std::string sink;
    if (traced) {
      config.service.experiment.telemetry.enabled = true;
      config.service.experiment.telemetry.sink = &sink;
    }
    try {
      const CpuTimes cpu_start = cpu_now();
      const auto t = Clock::now();
      const service::UdpServiceResult result = service::run_udp_service(config);
      const double wall = seconds_since(t);
      const CpuTimes cpu = cpu_now() - cpu_start;
      check_stream(result, report, checked, lags_ms);
      if (!traced) {
        plain_walls.push_back(wall);
        continue;
      }
      traced_walls.push_back(wall);
      const service::ServiceMetrics& m = result.result.metrics;
      instances += static_cast<double>(result.result.instances.size());
      for (const service::InstanceResult& instance : result.result.instances) {
        net.add(instance.network);
      }
      reactor.add(cpu, result.polls, result.timers_fired, result.eintr_retries,
                  sink);
      delivered += static_cast<double>(m.demux.delivered);
      dropped_demux += static_cast<double>(
          m.demux.malformed_envelope + m.demux.unknown_instance +
          m.demux.retired_instance + m.demux.unrouted_member);
      closed_sends += static_cast<double>(m.demux.closed_sends);
      deferred += static_cast<double>(m.deferred);
      launched += static_cast<double>(m.launched);
    } catch (const std::exception& e) {
      report.attempted += kEpochs;
      report.fail(e.what());
    }
  }
  report.notes.push_back("traced streams: " + std::to_string(traced_walls.size()) +
                         ", untraced: " + std::to_string(plain_walls.size()) +
                         "; counts are per instance");
  // The send shim sits below the mux, so per-instance stats never see its
  // drops: on the service, every send the mux did not deliver counts lost.
  net.dropped = net.sends - delivered;
  setup.report(report, true);
  net.report(report, instances);
  reactor.report(report, instances);
  const auto per = [instances](double total) { return ratio(total, instances); };
  report.add("service.mux.delivered", per(delivered), "count");
  report.add("service.mux.drop_frac", ratio(dropped_demux, delivered + dropped_demux),
             "fraction");
  report.add("service.mux.closed_sends", per(closed_sends), "count");
  report.add("service.deferred_frac", ratio(deferred, launched), "fraction");
  report.add("service.launch_lag_p90_ms", quantile(lags_ms, 0.9), "ms");
  report.add("service.in_flight_hw", reactor.in_flight_hw(), "count");
  report.add("obs.trace_overhead_frac",
             median(traced_walls) / median(plain_walls) - 1.0, "fraction");
}

}  // namespace

void run_udp_service(const Options& options, Report& report) {
  if (options.trace) {
    run_traced(options, report);
  } else {
    run_untraced(options, report);
  }
}

}  // namespace perfbench
