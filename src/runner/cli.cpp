#include "src/runner/cli.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/common/ensure.h"
#include "src/common/thread_pool.h"
#include "src/net/chaos.h"
#include "src/obs/build_info.h"
#include "src/obs/curves.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/lineage.h"
#include "src/obs/manifest.h"
#include "src/obs/trace_sink.h"
#include "src/runner/differential.h"
#include "src/runner/experiment.h"
#include "src/runner/stats.h"
#include "src/runner/table.h"
#include "src/service/service.h"

namespace gridbox::runner {

namespace {

/// Flag parsing shared by gridbox_sim and gridbox_node: a cursor over the
/// arguments plus value validators. Every value is validated in full, and
/// the first bad one becomes `error`.
struct Parser {
  explicit Parser(const std::vector<std::string>& arguments)
      : args(arguments) {}

  const std::vector<std::string>& args;
  std::size_t i = 0;
  std::string error;

  [[nodiscard]] bool fail(const std::string& message) {
    error = message;
    return false;
  }

  /// Consumes the value following `flag`.
  [[nodiscard]] bool value(const std::string& flag, std::string* out) {
    if (i + 1 >= args.size()) return fail(flag + ": missing value");
    *out = args[++i];
    return true;
  }

  [[nodiscard]] bool parse_double(const std::string& flag, double* out) {
    std::string text;
    if (!value(flag, &text)) return false;
    try {
      std::size_t used = 0;
      *out = std::stod(text, &used);
      if (used != text.size()) return fail(flag + ": not a number: " + text);
    } catch (const std::exception&) {
      return fail(flag + ": not a number: " + text);
    }
    // inf and nan parse, but no flag means them: downstream they become
    // undefined double -> integer casts.
    if (!std::isfinite(*out)) {
      return fail(flag + ": not a finite number: " + text);
    }
    return true;
  }

  /// A non-negative integer no larger than `hi`.
  [[nodiscard]] bool parse_uint(const std::string& flag, std::uint64_t* out,
                                std::uint64_t hi = UINT64_MAX) {
    std::string text;
    if (!value(flag, &text)) return false;
    try {
      std::size_t used = 0;
      const long long parsed = std::stoll(text, &used);
      if (used != text.size() || parsed < 0) {
        return fail(flag + ": not a non-negative integer: " + text);
      }
      *out = static_cast<std::uint64_t>(parsed);
    } catch (const std::exception&) {
      return fail(flag + ": not a non-negative integer: " + text);
    }
    if (*out > hi) {
      return fail(flag + ": must be at most " + std::to_string(hi) + ": " +
                  text);
    }
    return true;
  }

  /// parse_uint, rejecting zero.
  [[nodiscard]] bool parse_positive(const std::string& flag,
                                    std::uint64_t* out,
                                    std::uint64_t hi = UINT64_MAX) {
    if (!parse_uint(flag, out, hi)) return false;
    return *out > 0 || fail(flag + ": must be at least 1");
  }

  [[nodiscard]] bool parse_port(const std::string& flag, std::uint16_t* out) {
    std::uint64_t u = 0;
    if (!parse_positive(flag, &u, 65535)) return false;
    *out = static_cast<std::uint16_t>(u);
    return true;
  }

  [[nodiscard]] bool parse_protocol(ExperimentConfig& config) {
    static const std::map<std::string, ProtocolKind> kNames = {
        {"hier-gossip", ProtocolKind::kHierGossip},
        {"all-to-all", ProtocolKind::kFullyDistributed},
        {"centralized", ProtocolKind::kCentralized},
        {"leader", ProtocolKind::kLeaderElection},
        {"committee", ProtocolKind::kCommittee},
    };
    std::string text;
    if (!value("--protocol", &text)) return false;
    const auto it = kNames.find(text);
    if (it == kNames.end()) return fail("--protocol: unknown: " + text);
    config.protocol = it->second;
    return true;
  }

  [[nodiscard]] bool parse_aggregate(ExperimentConfig& config) {
    static const std::map<std::string, agg::AggregateKind> kNames = {
        {"average", agg::AggregateKind::kAverage},
        {"sum", agg::AggregateKind::kSum},
        {"min", agg::AggregateKind::kMin},
        {"max", agg::AggregateKind::kMax},
        {"count", agg::AggregateKind::kCount},
        {"range", agg::AggregateKind::kRange},
        {"stddev", agg::AggregateKind::kStdDev},
    };
    std::string text;
    if (!value("--aggregate", &text)) return false;
    const auto it = kNames.find(text);
    if (it == kNames.end()) return fail("--aggregate: unknown: " + text);
    config.aggregate = it->second;
    return true;
  }

  /// Stores `text` as the chaos spec after validating it, so a typo fails
  /// at the command line (with a line number), not three runs into a sweep.
  [[nodiscard]] bool set_chaos(const std::string& flag, const std::string& text,
                               ExperimentConfig& config) {
    try {
      (void)net::ChaosSpec::parse(text);
    } catch (const std::exception& e) {
      return fail(flag + ": " + e.what());
    }
    config.chaos_spec = text;
    return true;
  }

  /// The flags both tools accept, each meaning the same in both. Sets
  /// `*matched` when `flag` is one of them; false on a bad value.
  [[nodiscard]] bool parse_shared(const std::string& flag,
                                  ExperimentConfig& config,
                                  ServiceCliOptions& service, bool* matched) {
    *matched = true;
    std::uint64_t u = 0;
    if (flag == "--n") {
      if (!parse_uint(flag, &u)) return false;
      config.group_size = static_cast<std::size_t>(u);
    } else if (flag == "--protocol") {
      return parse_protocol(config);
    } else if (flag == "--aggregate") {
      return parse_aggregate(config);
    } else if (flag == "--seed") {
      return parse_uint(flag, &config.seed);
    } else if (flag == "--loss") {
      return parse_double(flag, &config.ucast_loss);
    } else if (flag == "--chaos") {
      // A spec file path, or inline text with ';' for newlines.
      std::string text;
      if (!value(flag, &text)) return false;
      if (std::ifstream file(text); file.good()) {
        std::ostringstream content;
        content << file.rdbuf();
        text = content.str();
      } else {
        std::replace(text.begin(), text.end(), ';', '\n');
      }
      return set_chaos(flag, text, config);
    } else if (flag == "--telemetry-out") {
      config.telemetry.enabled = true;
      return value(flag, &config.telemetry.out_path);
    } else if (flag == "--telemetry-interval-us") {
      if (!parse_positive(flag, &u)) return false;
      config.telemetry.interval =
          SimTime::micros(static_cast<SimTime::underlying>(u));
      config.telemetry.enabled = true;
    } else if (flag == "--instances") {
      if (!parse_uint(flag, &u)) return false;
      service.instances = static_cast<std::size_t>(u);
    } else if (flag == "--epoch-interval-us") {
      if (!parse_positive(flag, &u)) return false;
      service.epoch_interval =
          SimTime::micros(static_cast<SimTime::underlying>(u));
    } else if (flag == "--in-flight") {
      if (!parse_positive(flag, &u)) return false;
      service.in_flight = static_cast<std::size_t>(u);
    } else {
      *matched = false;
    }
    return true;
  }
};

}  // namespace

std::string usage_text() {
  return R"(gridbox_sim — one-shot aggregation experiments (DSN'01 reproduction)

usage: gridbox_sim [flags]

protocol
  --protocol NAME        hier-gossip (default) | all-to-all | centralized |
                         leader | committee
  --committee-size N     committee size K' for --protocol committee (default 1,
                         which runs exactly the leader protocol)

group & hierarchy
  --n N                  group size (default 200)
  --k K                  members per grid box / tree fanout (default 4)
  --view-coverage F      fraction of members in each view, (0,1] (default 1)
  --hash NAME            fair (default) | topo   (topo assigns positions)

gossip tuning
  --m M                  gossipees per round (default 2)
  --c C                  rounds-per-phase multiplier (default 1.0)
  --rounds-per-phase R   override the round formula with exactly R rounds
  --exchange MODE        full (default) | single  (values per message)
  --no-early-bump        synchronous phases (analysis model)
  --no-linger            terminate on final-phase saturation

faults
  --loss P               iid unicast loss probability (default 0.25)
  --partition-loss P     soft-partition cross loss; unset = no partition
  --pf P                 per-round member crash probability (default 0.001)
  --chaos SPEC           chaos script: a spec file path, or inline directives
                         separated by ';' (see docs/chaos.md). Network
                         directives replace --loss/--partition-loss

workload & measurement
  --workload NAME        uniform (default) | normal | field
  --aggregate NAME       average (default) | sum | min | max | count |
                         range | stddev
  --audit                verify no-double-counting per run
  --no-invariants        disable the always-on run invariant checker
  --differential         run hier-gossip + all baselines over the same
                         scenario and cross-check audited estimates
                         (exit 2 on any disagreement)
  --seed S               root seed (default 1); run r uses seed S+r
  --runs R               independent runs (default 1)
  --jobs N               worker threads for multi-run execution (default:
                         GRIDBOX_JOBS env var, else hardware concurrency);
                         results are identical for every N
  --csv PATH             also write per-run rows as CSV

service (docs/service.md)
  --instances I          stream I concurrent protocol instances through one
                         membership (service mode; chaos specs may add
                         join/recover churn directives)
  --epoch-interval-us U  launch cadence in µs (default 50000)
  --in-flight W          bounded in-flight window (default 8)

observability
  --metrics              collect per-run metrics and print the merged
                         snapshot (counters/gauges/histograms) as JSON
  --trace-out PATH       write a JSONL event trace per run; with --runs R>1
                         run r writes PATH-run<r> (before the extension)
  --run-manifest PATH    write a run.json manifest: config fingerprint,
                         seeds, per-run phase timelines and metrics
  --lineage PATH         write the causal vote-lineage forest per run as
                         JSON (gridbox-lineage/1; query with gridbox_explain)
  --curves-out PATH      write empirical epidemic curves per run as JSON
                         (gridbox-curves/1; hier-gossip also carries the
                         analytic Bailey model for the same N, K, b)
  --flight-recorder PATH arm a bounded in-memory event ring per run; when a
                         run dies on an invariant violation, dump config +
                         chaos spec + event tail to PATH for replay
  --profile              exclusive time per layer (runner / sim.loop /
                         protocols.round / protocols.recv / codec.encode /
                         net.send / protocols.check / obs), summing to the
                         run; printed after the summary
  --telemetry-out PATH   stream gridbox-telemetry/1 JSONL health samples
                         (per-lane counters + log2 histograms; view live
                         with gridbox_top --file PATH)
  --telemetry-interval-us U
                         telemetry sampling cadence in simulated µs
                         (default 100000)

  --help                 this text
)";
}


CliParseResult parse_cli(const std::vector<std::string>& args) {
  Parser p(args);
  CliOptions options;
  ExperimentConfig& config = options.config;

  for (; p.i < args.size(); ++p.i) {
    const std::string& flag = args[p.i];
    std::string value;
    double d = 0.0;
    std::uint64_t u = 0;
    bool shared = false;

    if (flag == "--help" || flag == "-h") {
      options.show_help = true;
      return CliParseResult{options, ""};
    } else if (!p.parse_shared(flag, config, options, &shared)) {
      break;
    } else if (shared) {
      continue;
    } else if (flag == "--k") {
      if (!p.parse_uint(flag, &u)) break;
      config.gossip.k = static_cast<std::uint32_t>(u);
      config.hierarchy_k = static_cast<std::uint32_t>(u);
    } else if (flag == "--m") {
      if (!p.parse_uint(flag, &u)) break;
      config.gossip.fanout_m = static_cast<std::uint32_t>(u);
    } else if (flag == "--c") {
      if (!p.parse_double(flag, &d)) break;
      config.gossip.round_multiplier_c = d;
    } else if (flag == "--rounds-per-phase") {
      if (!p.parse_uint(flag, &u)) break;
      config.gossip.rounds_per_phase_override = u;
    } else if (flag == "--exchange") {
      if (!p.value(flag, &value)) break;
      if (value == "full") {
        config.gossip.exchange_mode =
            protocols::gossip::ExchangeMode::kFullState;
      } else if (value == "single") {
        config.gossip.exchange_mode =
            protocols::gossip::ExchangeMode::kSingleValue;
      } else {
        (void)p.fail("--exchange: unknown: " + value);
        break;
      }
    } else if (flag == "--no-early-bump") {
      config.gossip.early_bump = false;
    } else if (flag == "--no-linger") {
      config.gossip.final_phase_linger = false;
    } else if (flag == "--committee-size") {
      if (!p.parse_uint(flag, &u)) break;
      config.committee.committee_size = static_cast<std::uint32_t>(u);
    } else if (flag == "--view-coverage") {
      if (!p.parse_double(flag, &d)) break;
      config.view_coverage = d;
    } else if (flag == "--hash") {
      if (!p.value(flag, &value)) break;
      if (value == "fair") {
        config.hash = HashKind::kFair;
      } else if (value == "topo") {
        config.hash = HashKind::kTopoAware;
        config.assign_positions = true;
      } else {
        (void)p.fail("--hash: unknown: " + value);
        break;
      }
    } else if (flag == "--partition-loss") {
      if (!p.parse_double(flag, &d)) break;
      config.partition_loss = d;
    } else if (flag == "--pf") {
      if (!p.parse_double(flag, &d)) break;
      config.crash_probability = d;
    } else if (flag == "--workload") {
      if (!p.value(flag, &value)) break;
      if (value == "uniform") {
        config.workload = WorkloadKind::kUniform;
      } else if (value == "normal") {
        config.workload = WorkloadKind::kNormal;
      } else if (value == "field") {
        config.workload = WorkloadKind::kField;
        config.assign_positions = true;
      } else {
        (void)p.fail("--workload: unknown: " + value);
        break;
      }
    } else if (flag == "--audit") {
      config.audit = true;
    } else if (flag == "--no-invariants") {
      config.check_invariants = false;
    } else if (flag == "--differential") {
      options.differential = true;
    } else if (flag == "--runs") {
      if (!p.parse_positive(flag, &u)) break;
      options.runs = static_cast<std::size_t>(u);
    } else if (flag == "--jobs") {
      if (!p.parse_positive(flag, &u)) break;
      config.jobs = static_cast<std::size_t>(u);
    } else if (flag == "--csv") {
      if (!p.value(flag, &options.csv_path)) break;
    } else if (flag == "--metrics") {
      options.metrics = true;
      config.collect_metrics = true;
    } else if (flag == "--trace-out") {
      if (!p.value(flag, &options.trace_out)) break;
    } else if (flag == "--run-manifest") {
      if (!p.value(flag, &options.manifest_path)) break;
      config.collect_metrics = true;  // manifests carry timelines + metrics
    } else if (flag == "--lineage") {
      if (!p.value(flag, &options.lineage_out)) break;
    } else if (flag == "--curves-out") {
      if (!p.value(flag, &options.curves_out)) break;
    } else if (flag == "--flight-recorder") {
      if (!p.value(flag, &options.flight_out)) break;
    } else if (flag == "--profile") {
      config.profile = true;
    } else {
      (void)p.fail("unknown flag: " + flag);
      break;
    }
  }

  if (p.error.empty() && options.instances > 0) {
    if (options.runs > 1) {
      (void)p.fail("--instances: service mode streams one run; drop --runs");
    } else if (options.differential) {
      (void)p.fail(
          "--instances: the service differential lives in gridbox_node "
          "--instances --differential");
    }
  }
  // Output flags a mode would accept and then never write.
  if (p.error.empty() && (options.instances > 0 || options.differential)) {
    const bool diff = options.differential;
    const std::pair<const char*, bool> outputs[] = {
        {"--profile", config.profile},
        {"--metrics", options.metrics},
        {"--trace-out", !options.trace_out.empty()},
        {"--run-manifest", !options.manifest_path.empty()},
        {"--curves-out", !options.curves_out.empty()},
        {"--flight-recorder", !options.flight_out.empty()},
        {"--lineage", diff && !options.lineage_out.empty()},
        {"--csv", diff && !options.csv_path.empty()},
    };
    for (const auto& [flag, set] : outputs) {
      if (set) {
        (void)p.fail(std::string(flag) + ": not written in " +
                     (diff ? "--differential" : "--instances") + " mode");
        break;
      }
    }
  }
  if (!p.error.empty()) return CliParseResult{std::nullopt, p.error};
  return CliParseResult{options, ""};
}

NodeCliParseResult parse_node_cli(const std::vector<std::string>& args) {
  Parser p(args);
  NodeCliOptions options;
  ExperimentConfig& config = options.udp.experiment;
  config.crash_probability = 0.0;  // real runs default crash-free
  config.audit = true;

  for (; p.i < args.size(); ++p.i) {
    const std::string& flag = args[p.i];
    std::uint64_t u = 0;
    bool shared = false;

    if (flag == "--help") {
      options.show_help = true;
      return NodeCliParseResult{options, ""};
    } else if (!p.parse_shared(flag, config, options, &shared)) {
      break;
    } else if (shared) {
      continue;
    } else if (flag == "--port-base") {
      if (!p.parse_port(flag, &options.udp.port_base)) break;
    } else if (flag == "--threads") {
      if (!p.parse_uint(flag, &u)) break;
      options.udp.shards = static_cast<std::size_t>(u);
    } else if (flag == "--round-us") {
      if (!p.parse_positive(flag, &u, UINT32_MAX)) break;
      config.gossip.round_duration =
          SimTime::micros(static_cast<SimTime::underlying>(u));
    } else if (flag == "--deadline-factor") {
      if (!p.parse_double(flag, &options.udp.deadline_factor)) break;
      if (options.udp.deadline_factor <= 0.0) {
        (void)p.fail(flag + ": must be positive");
        break;
      }
    } else if (flag == "--telemetry-port") {
      if (!p.parse_port(flag, &config.telemetry.udp_port)) break;
      config.telemetry.enabled = true;
    } else if (flag == "--differential") {
      options.differential = true;
    } else if (flag == "--report-dir") {
      if (!p.value(flag, &options.report_dir)) break;
    } else {
      (void)p.fail("unknown flag: " + flag + " (see --help)");
      break;
    }
  }
  if (!p.error.empty()) return NodeCliParseResult{std::nullopt, p.error};
  return NodeCliParseResult{options, ""};
}

namespace {

int run_differential_cli(const CliOptions& options) {
  Table table({"run", "protocol", "completeness", "survivors", "finished",
               "true value", "audit", "reconstruct"});
  bool all_ok = true;
  for (std::size_t run = 0; run < options.runs; ++run) {
    ExperimentConfig config = options.config;
    config.seed = options.config.seed + run;
    const DifferentialReport report = run_differential(config);
    if (!report.ok()) all_ok = false;
    for (const DifferentialRow& row : report.rows) {
      if (!row.ran) {
        table.add_row({std::to_string(run), row.label,
                       "error: " + row.error, "-", "-", "-", "-", "-"});
        continue;
      }
      const auto& m = row.outcome.measurement;
      table.add_row(
          {std::to_string(run), row.label,
           Table::num(m.mean_completeness), std::to_string(m.survivors),
           std::to_string(m.finished_nodes), Table::num(m.true_value),
           std::to_string(m.audit_violations),
           m.reconstruction_failures == 0 ? "ok"
                                          : std::to_string(
                                                m.reconstruction_failures) +
                                                " failed"});
    }
  }
  std::fputs(table.to_text().c_str(), stdout);
  std::printf("\ndifferential oracle: %s\n",
              all_ok ? "all protocols agree (clean)" : "DISAGREEMENT — BUG");
  return all_ok ? 0 : 2;
}

/// Service mode: one streaming run, a per-instance table, service metrics,
/// and (with --lineage) one gridbox-lineage-multi/1 document.
int run_service_cli(const CliOptions& options) {
  service::ServiceConfig sc;
  sc.experiment = options.config;
  sc.instances = options.instances;
  sc.epoch_interval = options.epoch_interval;
  sc.max_in_flight = options.in_flight;
  sc.collect_lineage = !options.lineage_out.empty();

  const auto started = std::chrono::steady_clock::now();
  service::ServiceResult result;
  try {
    result = service::run_service_experiment(sc);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 1;
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();

  Table table({"instance", "launched_ms", "done_ms", "participants",
               "completeness", "true value", "audit", "invariants", "msgs"});
  for (const service::InstanceResult& inst : result.instances) {
    const auto& m = inst.measurement;
    table.add_row(
        {std::to_string(inst.id),
         std::to_string(inst.launched_at.ticks() / 1000),
         inst.completed ? std::to_string(inst.completed_at.ticks() / 1000)
                        : "FAILED",
         std::to_string(inst.participants), Table::num(m.mean_completeness),
         Table::num(m.true_value), std::to_string(m.audit_violations),
         std::to_string(inst.invariant_violations),
         std::to_string(inst.network.messages_sent)});
  }
  std::fputs(table.to_text().c_str(), stdout);
  if (!options.csv_path.empty()) {
    if (table.write_csv(options.csv_path)) {
      std::printf("[csv] %s\n", options.csv_path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n",
                   options.csv_path.c_str());
      return 1;
    }
  }

  const service::ServiceMetrics& sm = result.metrics;
  std::printf(
      "\nservice: %zu/%zu instance(s) completed, %zu failed, %zu deferred "
      "launch(es)\n"
      "throughput %.2f instances/s (sim time), completion p50 %.1f ms "
      "p90 %.1f ms p99 %.1f ms\n"
      "demux: delivered %llu, malformed %llu, unknown %llu, retired %llu, "
      "closed sends %llu\n"
      "elapsed %.1f ms sim, wall-clock %.3f s\n",
      sm.completed, sm.launched, sm.failed, sm.deferred, sm.instances_per_sec,
      static_cast<double>(sm.p50_completion.ticks()) / 1000.0,
      static_cast<double>(sm.p90_completion.ticks()) / 1000.0,
      static_cast<double>(sm.p99_completion.ticks()) / 1000.0,
      static_cast<unsigned long long>(sm.demux.delivered),
      static_cast<unsigned long long>(sm.demux.malformed_envelope),
      static_cast<unsigned long long>(sm.demux.unknown_instance),
      static_cast<unsigned long long>(sm.demux.retired_instance),
      static_cast<unsigned long long>(sm.demux.closed_sends),
      static_cast<double>(result.elapsed.ticks()) / 1000.0, wall_seconds);

  if (!options.lineage_out.empty()) {
    std::ofstream out(options.lineage_out,
                      std::ios::binary | std::ios::trunc);
    out << service::lineage_multi_json(result.instances) << '\n';
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   options.lineage_out.c_str());
      return 1;
    }
    std::printf("[lineage] %s (gridbox-lineage-multi/1; query with "
                "gridbox_explain --instance ID)\n",
                options.lineage_out.c_str());
  }
  return result.clean() ? 0 : 1;
}

}  // namespace

std::string trace_path_for_run(const std::string& base, std::size_t run,
                               std::size_t total_runs) {
  if (total_runs <= 1) return base;
  const std::size_t dot = base.find_last_of('.');
  const std::size_t slash = base.find_last_of('/');
  const std::string suffix = "-run" + std::to_string(run);
  // No extension, the last '.' is in a directory name, or the '.' leads a
  // hidden file (".trace", "out/.trace"): plain append.
  if (dot == std::string::npos ||
      (slash != std::string::npos && slash > dot) ||
      dot == (slash == std::string::npos ? 0 : slash + 1)) {
    return base + suffix;
  }
  return base.substr(0, dot) + suffix + base.substr(dot);
}

int run_cli(const CliOptions& options) {
  if (options.show_help) {
    std::fputs(usage_text().c_str(), stdout);
    return 0;
  }
  if (options.differential) return run_differential_cli(options);
  if (options.instances > 0) return run_service_cli(options);

  Table table({"run", "seed", "completeness", "incompleteness", "survivors",
               "true value", "mean abs err", "msgs", "rounds"});
  std::vector<double> completeness;
  std::vector<double> incompleteness;
  std::uint64_t audit_violations = 0;

  // Runs are independent (seed = base seed + run index) and fan across a
  // thread pool; results land in per-run slots so the printed rows and
  // summaries are identical for every --jobs value.
  const std::size_t jobs =
      std::min(options.config.resolved_jobs(), std::max<std::size_t>(options.runs, 1));
  const auto started = std::chrono::steady_clock::now();
  std::vector<RunResult> results(options.runs);
  const auto write_json = [](const std::string& path,
                             const std::string& text) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    out.put('\n');
    if (!out) throw std::runtime_error("cannot write " + path);
  };
  const auto run_one = [&](std::size_t run) {
    ExperimentConfig config = options.config;
    config.seed = options.config.seed + run;
    // Each run owns its telemetry series, so parallel runs never contend
    // for one file; like traces, run r writes PATH-run<r>.
    if (config.telemetry.enabled && !config.telemetry.out_path.empty()) {
      config.telemetry.out_path = trace_path_for_run(
          config.telemetry.out_path, run, options.runs);
    }
    // Each run owns its trace file, so parallel runs never interleave lines.
    std::unique_ptr<obs::TraceSink> sink;
    if (!options.trace_out.empty()) {
      sink = obs::TraceSink::to_file(
          trace_path_for_run(options.trace_out, run, options.runs));
      config.trace_sink = sink.get();
    }
    std::unique_ptr<obs::LineageTracker> lineage;
    if (!options.lineage_out.empty()) {
      obs::LineageTracker::Options lopt;
      lopt.group_size = config.group_size;
      lineage = std::make_unique<obs::LineageTracker>(lopt);
      config.lineage = lineage.get();
    }
    std::unique_ptr<obs::CurveRecorder> curves;
    if (!options.curves_out.empty()) {
      obs::CurveRecorder::Options copt;
      copt.round_us =
          static_cast<std::uint64_t>(config.round_duration().ticks());
      curves = std::make_unique<obs::CurveRecorder>(copt);
      config.curves = curves.get();
    }
    std::unique_ptr<obs::FlightRecorder> flight;
    if (!options.flight_out.empty()) {
      obs::FlightRecorder::Options fopt;
      fopt.config_text = config_canonical_text(config);
      fopt.chaos_spec = config.chaos_spec;
      fopt.seed = config.seed;
      flight = std::make_unique<obs::FlightRecorder>(fopt);
      config.flight = flight.get();
    }
    try {
      results[run] = run_experiment(config);
    } catch (const InvariantError&) {
      // The ring holds the events leading up to the violation plus the
      // config and chaos spec needed to replay it; dump before unwinding.
      if (flight != nullptr) {
        const std::string path =
            trace_path_for_run(options.flight_out, run, options.runs);
        if (flight->dump_to_file(path)) {
          std::fprintf(stderr,
                       "[flight] invariant violated: dump written to %s\n",
                       path.c_str());
        }
      }
      throw;
    }
    if (lineage != nullptr) {
      for (const std::string& e : lineage->errors()) {
        std::fprintf(stderr, "[lineage] accounting error: %s\n", e.c_str());
      }
      write_json(trace_path_for_run(options.lineage_out, run, options.runs),
                 lineage->to_json());
    }
    if (curves != nullptr) {
      write_json(trace_path_for_run(options.curves_out, run, options.runs),
                 curves->to_json());
    }
  };
  try {
    common::run_indexed(options.runs, jobs, run_one);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 1;
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();

  for (std::size_t run = 0; run < options.runs; ++run) {
    const auto& m = results[run].measurement;
    completeness.push_back(m.mean_completeness);
    incompleteness.push_back(m.mean_incompleteness);
    audit_violations += m.audit_violations;
    table.add_row({std::to_string(run),
                   std::to_string(options.config.seed + run),
                   Table::num(m.mean_completeness),
                   Table::num(m.mean_incompleteness),
                   std::to_string(m.survivors),
                   Table::num(m.true_value), Table::num(m.mean_abs_error),
                   std::to_string(m.network_messages),
                   std::to_string(m.max_rounds)});
  }

  std::fputs(table.to_text().c_str(), stdout);
  if (!options.csv_path.empty()) {
    if (table.write_csv(options.csv_path)) {
      std::printf("[csv] %s\n", options.csv_path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n",
                   options.csv_path.c_str());
      return 1;
    }
  }

  const SummaryStats c = summarize(completeness);
  const SummaryStats q = summarize(incompleteness);
  std::printf(
      "\nsummary over %zu run(s): completeness %.6f +/- %.6f (95%% CI), "
      "incompleteness mean %.3g geomean %.3g\n"
      "wall-clock: %.3f s on %zu job(s)\n",
      options.runs, c.mean, c.ci95_half_width, q.mean,
      geometric_mean(incompleteness), wall_seconds, jobs);
  if (options.config.audit) {
    std::printf("audit: %llu double-counting violations%s\n",
                static_cast<unsigned long long>(audit_violations),
                audit_violations == 0 ? " (clean)" : " — BUG");
  }

  // Observability outputs, merged over runs in run (slot) order so the
  // emitted JSON is bitwise-identical for every --jobs value.
  obs::MetricsSnapshot merged_metrics;
  obs::ProfileSnapshot merged_profile;
  for (const RunResult& r : results) {
    merged_metrics.merge(r.metrics);
    merged_profile.merge(r.profile);
  }
  if (options.metrics) {
    std::printf("\n[metrics] %s\n", merged_metrics.to_json().c_str());
  }
  if (!merged_profile.empty()) {
    std::printf("\n[profile] %s\n", merged_profile.to_json().c_str());
  }
  if (!options.trace_out.empty()) {
    std::printf("[trace] %s (%zu file%s)\n", options.trace_out.c_str(),
                options.runs, options.runs == 1 ? "" : "s");
  }
  if (!options.lineage_out.empty()) {
    std::printf("[lineage] %s (%zu file%s)\n", options.lineage_out.c_str(),
                options.runs, options.runs == 1 ? "" : "s");
  }
  if (!options.curves_out.empty()) {
    std::printf("[curves] %s (%zu file%s)\n", options.curves_out.c_str(),
                options.runs, options.runs == 1 ? "" : "s");
  }
  if (!options.manifest_path.empty()) {
    obs::RunManifest manifest;
    manifest.tool = "gridbox_sim";
    manifest.git_rev = obs::git_revision();
    manifest.config_text = config_canonical_text(options.config);
    manifest.chaos_spec = options.config.chaos_spec;
    manifest.base_seed = options.config.seed;
    manifest.jobs = jobs;
    manifest.wall_s = wall_seconds;
    manifest.profile = merged_profile;
    for (std::size_t run = 0; run < options.runs; ++run) {
      obs::RunManifest::RunEntry entry;
      entry.seed = options.config.seed + run;
      entry.mean_completeness = results[run].measurement.mean_completeness;
      entry.network_messages = results[run].measurement.network_messages;
      entry.sim_events = results[run].sim_events;
      entry.sim_end_us = results[run].sim_end_us;
      entry.timeline = results[run].timeline;
      entry.metrics = results[run].metrics;
      manifest.runs.push_back(std::move(entry));
    }
    if (manifest.write(options.manifest_path)) {
      std::printf("[manifest] %s\n", options.manifest_path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n",
                   options.manifest_path.c_str());
      return 1;
    }
  }
  return audit_violations == 0 ? 0 : 2;
}

}  // namespace gridbox::runner
