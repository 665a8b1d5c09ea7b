// Command-line front ends: the simulated experiment runner (`gridbox_sim`)
// and the real-socket runner (`gridbox_node`).
//
// The parsers are library functions so tests can exercise them without
// spawning processes; they share one flag-value validator, so a flag both
// tools accept means the same thing in both. gridbox_sim's main() is a thin
// wrapper (tools/gridbox_sim.cpp).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/runner/config.h"
#include "src/runner/udp_runtime.h"

namespace gridbox::runner {

/// Service-mode flags both tools accept (docs/service.md). In gridbox_sim,
/// service mode is incompatible with --runs/--differential, and --lineage
/// then writes one "gridbox-lineage-multi/1" document for gridbox_explain
/// --instance.
struct ServiceCliOptions {
  /// --instances I > 0: service mode — stream I concurrent protocol
  /// instances through one membership.
  std::size_t instances = 0;
  /// --epoch-interval-us U: service launch cadence.
  SimTime epoch_interval = SimTime::millis(50);
  /// --in-flight W: service bounded in-flight window.
  std::size_t in_flight = 8;
};

struct CliOptions : ServiceCliOptions {
  ExperimentConfig config;
  std::size_t runs = 1;
  std::string csv_path;  ///< empty = no CSV output
  bool show_help = false;
  /// --differential: the differential oracle's protocol axis, all four
  /// protocols over one scenario (runner/differential.h; exit 2 on divergence).
  bool differential = false;

  /// --metrics: collect per-run metric snapshots and print the merged
  /// snapshot (run order) as JSON after the summary.
  bool metrics = false;
  /// --trace-out PATH: JSONL trace per run. With --runs R > 1, run r writes
  /// PATH with "-run<r>" inserted before the extension.
  std::string trace_out;
  /// --run-manifest PATH: write a run.json manifest covering all runs
  /// (implies metric collection so per-run timelines exist).
  std::string manifest_path;
  /// --lineage PATH: write the causal vote-lineage forest per run as a
  /// "gridbox-lineage/1" JSON document (per-run "-run<r>" suffix as above).
  std::string lineage_out;
  /// --curves-out PATH: write per-run empirical epidemic curves (plus the
  /// analytic model for hier-gossip) as a "gridbox-curves/1" JSON document.
  std::string curves_out;
  /// --flight-recorder PATH: arm a bounded in-memory event ring per run and
  /// dump it (config + chaos spec + event tail) to PATH when the run dies on
  /// an invariant violation. Nothing is written for clean runs.
  std::string flight_out;
};

/// The trace file a given run writes: `base` itself for a single run, else
/// "-run<run>" inserted before the extension (trace.jsonl -> trace-run3.jsonl).
[[nodiscard]] std::string trace_path_for_run(const std::string& base,
                                             std::size_t run,
                                             std::size_t total_runs);

struct CliParseResult {
  std::optional<CliOptions> options;  ///< set on success
  std::string error;                  ///< set on failure
};

/// Parses gridbox_sim flags (see usage_text()). `args` excludes argv[0].
[[nodiscard]] CliParseResult parse_cli(const std::vector<std::string>& args);

/// The --help text.
[[nodiscard]] std::string usage_text();

/// gridbox_node's options: one real-socket run, or (instances > 0) a
/// service stream over one socket set.
struct NodeCliOptions : ServiceCliOptions {
  /// The run; group, network and telemetry flags land here. Defaults differ
  /// from gridbox_sim's: crash-free (pf 0) and audited.
  UdpRunConfig udp;
  bool show_help = false;
  /// --differential: also run the simulator, judged on the differential
  /// oracle's substrate axis (exit 2 on divergence; per instance in service).
  bool differential = false;
  /// --report-dir DIR: write summary, chaos spec and manifest artifacts.
  std::string report_dir;
};

struct NodeCliParseResult {
  std::optional<NodeCliOptions> options;  ///< set on success
  std::string error;                      ///< set on failure
};

/// Parses gridbox_node flags (tools/gridbox_node.cpp --help). `args`
/// excludes argv[0].
[[nodiscard]] NodeCliParseResult parse_node_cli(
    const std::vector<std::string>& args);

/// Runs the experiment(s) described by `options` and prints per-run rows and
/// a summary to stdout. Returns a process exit code.
int run_cli(const CliOptions& options);

}  // namespace gridbox::runner
