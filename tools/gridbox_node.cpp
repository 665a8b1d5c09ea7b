// gridbox_node: run an aggregation group over real UDP sockets on loopback.
//
// Every member of the group runs as a protocol node inside this process,
// sharded over a few reactor threads, each shard with one nonblocking UDP
// socket that serves all of its members — the deployable counterpart of
// gridbox_sim (docs/udp_runtime.md). With --differential the same config
// also runs in the simulator and the differential oracle
// (src/runner/differential.h) judges both; exit status 2 signals
// divergence, matching `gridbox_sim --differential`.
//
// Exit codes: 0 success / agreement, 1 usage or run error, 2 divergence.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/net/chaos.h"
#include "src/obs/build_info.h"
#include "src/obs/manifest.h"
#include "src/runner/cli.h"
#include "src/runner/config.h"
#include "src/runner/differential.h"
#include "src/runner/udp_runtime.h"
#include "src/service/udp_service.h"

namespace {

using namespace gridbox;

void print_help() {
  std::cout << R"(gridbox_node — aggregation over real UDP sockets on loopback

usage: gridbox_node [options]

group
  --n N                  group size (default 200)
  --protocol NAME        hier-gossip (default) | all-to-all | centralized |
                         leader | committee
  --seed S               root seed (default 1)
  --aggregate NAME       average (default) | sum | min | max | count |
                         range | stddev

network
  --port-base P          each shard's socket binds the lowest free port >= P
                         on 127.0.0.1 (default 38000)
  --threads T            reactor shard threads (default auto)
  --loss P               iid unicast loss, applied via the userspace shim
  --chaos SPEC           chaos spec file (docs/chaos.md grammar), or
                         inline directives separated by ';'
  --round-us U           gossip round duration in µs (default 10000)
  --deadline-factor F    wall-clock deadline multiplier (default 20)

service (docs/service.md)
  --instances I          run I protocol instances as a streaming service
                         over one socket set (enables service mode)
  --epoch-interval-us U  launch cadence in µs (default 50000)
  --in-flight W          bounded in-flight window (default 8)
                         chaos specs may add join/recover churn directives

telemetry (docs/observability.md)
  --telemetry-out PATH   stream gridbox-telemetry/1 JSONL health samples
                         to PATH (enables live telemetry)
  --telemetry-interval-us U
                         sampling cadence in µs (default 100000)
  --telemetry-port P     also serve the latest record one-shot from a UDP
                         stats socket on 127.0.0.1:P (gridbox_top --udp)

harness
  --differential         also run the simulator; exit 2 unless both runs
                         complete, are honest and invariant-clean, and
                         agree on ground truth and cohort (docs/udp_runtime.md).
                         In service mode the check applies per instance.
  --report-dir DIR       write summary.txt, chaos.spec, and manifest.json
                         (CI failure artifacts)
  --help
)";
}

/// `shards` ran; 0 (no mesh was built) records the --threads value.
void write_report(const runner::NodeCliOptions& options,
                  const std::string& summary, std::size_t shards) {
  if (options.report_dir.empty()) return;
  const std::string dir = options.report_dir;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best-effort, like write()
  std::ofstream(dir + "/summary.txt") << summary;
  std::ofstream(dir + "/chaos.spec")
      << net::ChaosSpec::parse(options.udp.experiment.chaos_spec).to_text();
  obs::RunManifest manifest;
  manifest.tool = "gridbox_node";
  manifest.git_rev = obs::git_revision();
  manifest.config_text =
      runner::config_canonical_text(options.udp.experiment);
  manifest.chaos_spec = options.udp.experiment.chaos_spec;
  manifest.base_seed = options.udp.experiment.seed;
  manifest.jobs = shards != 0 ? shards : options.udp.shards;
  (void)manifest.write(dir + "/manifest.json");
}

}  // namespace

int main(int argc, char** argv) {
  const runner::NodeCliParseResult parsed =
      runner::parse_node_cli(std::vector<std::string>(argv + 1, argv + argc));
  if (!parsed.options.has_value()) {
    std::cerr << "error: " << parsed.error << "\nrun with --help for usage\n";
    return 1;
  }
  const runner::NodeCliOptions& options = *parsed.options;
  if (options.show_help) {
    print_help();
    return 0;
  }

  // Prints the summary, writes the report artifacts, returns `code`.
  const auto finish = [&options](const std::string& summary,
                                 std::size_t shards, int code) {
    std::cout << summary;
    write_report(options, summary, shards);
    return code;
  };
  service::UdpServiceConfig sc;
  sc.service.experiment = options.udp.experiment;
  sc.service.instances = options.instances;
  sc.service.epoch_interval = options.epoch_interval;
  sc.service.max_in_flight = options.in_flight;
  sc.service.deadline_factor = options.udp.deadline_factor;
  sc.port_base = options.udp.port_base;
  sc.shards = options.udp.shards;
  try {
    if (options.differential) {
      const bool streamed = options.instances > 0;
      const runner::DifferentialReport report =
          streamed ? runner::run_service_differential(sc)
                   : runner::run_udp_differential(options.udp);
      return finish(report.describe(),
                    streamed ? report.udp_service.shards
                             : report.udp_run.shards,
                    report.ok() ? 0 : 2);
    }
    if (options.instances > 0) {
      const service::UdpServiceResult result = service::run_udp_service(sc);
      const service::ServiceMetrics& m = result.result.metrics;
      std::ostringstream out;
      out << "service n=" << sc.service.experiment.group_size
          << " shards=" << result.shards << " instances=" << m.completed
          << "/" << m.launched << " failed=" << m.failed
          << " deferred=" << m.deferred << " inst_per_s=" << m.instances_per_sec
          << " p50_ms=" << m.p50_completion.ticks() / 1000
          << " p99_ms=" << m.p99_completion.ticks() / 1000
          << " demux_delivered=" << m.demux.delivered
          << " demux_malformed=" << m.demux.malformed_envelope
          << " demux_unknown=" << m.demux.unknown_instance
          << " demux_retired=" << m.demux.retired_instance
          << " closed_sends=" << m.demux.closed_sends
          << " elapsed_ms=" << result.result.elapsed.ticks() / 1000 << "\n";
      return finish(out.str(), result.shards, result.result.clean() ? 0 : 1);
    }
    const runner::UdpRunResult result =
        runner::run_udp_experiment(options.udp);
    std::ostringstream out;
    const protocols::RunMeasurement& m = result.measurement;
    out << "n=" << m.group_size << " shards=" << result.shards
        << " completed=" << (result.completed ? "yes" : "no")
        << " finished=" << m.finished_nodes << "/" << m.survivors
        << " completeness=" << m.mean_completeness
        << " audit_violations=" << m.audit_violations
        << " reconstruction_failures=" << m.reconstruction_failures
        << " invariant_violations=" << result.invariant_violations
        << " sent=" << result.network.messages_sent
        << " delivered=" << result.network.messages_delivered
        << " dropped=" << result.network.messages_dropped
        << " elapsed_ms=" << result.elapsed.ticks() / 1000 << "\n";
    const bool clean = result.completed && protocols::honest(m) &&
                       result.invariant_violations == 0;
    return finish(out.str(), result.shards, clean ? 0 : 1);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    write_report(options, std::string("error: ") + e.what() + "\n", 0);
    return 1;
  }
}
