// BENCH_*.json: the benchmark interchange format.
//
// gridbox_bench writes one BenchReport per suite; bench_diff loads several
// reports from each of two builds run on one host and compares entries by
// name. The schema is versioned so a report from an older layout fails
// loudly instead of comparing garbage.
//
// Wall times are medians over repeats (robust against one noisy run);
// events/s and msgs/s are derived from the same median repeat. Peak RSS is
// process-wide and monotone, so it describes the suite up to that point —
// still useful as a coarse memory-regression tripwire.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gridbox::obs {

struct BenchEntry {
  std::string name;                    ///< stable case id within the suite
  double wall_s = 0.0;                 ///< median wall seconds per repeat
  double events_per_s = 0.0;           ///< sim events / wall_s
  double msgs_per_s = 0.0;             ///< network messages / wall_s
  std::uint64_t sim_events = 0;        ///< per repeat (deterministic)
  std::uint64_t network_messages = 0;  ///< per repeat (deterministic)
  double peak_rss_mb = 0.0;            ///< process peak RSS after the case
  /// Peak RSS divided by the case's member count — the memory-scalability
  /// figure of merit for the big-N scale cases. 0 when the case does not
  /// report it (older reports parse fine: the field is optional).
  double rss_per_member_b = 0.0;
  /// Service-suite throughput/latency: completed instances per second and
  /// p99 launch-to-completion time. 0 when the case does not report them
  /// (non-service suites and older reports parse fine: both are optional).
  double instances_per_s = 0.0;
  double p99_completion_ms = 0.0;
};

struct BenchReport {
  /// Bumped when the JSON layout changes shape.
  static constexpr const char* kSchema = "gridbox-bench/1";

  /// "micro_core" | "fig06_scale" | "chaos_stress" | "service"
  std::string suite;
  std::string git_rev;
  std::uint64_t repeats = 1;
  std::size_t jobs = 1;
  std::vector<BenchEntry> entries;

  [[nodiscard]] std::string to_json() const;
  /// Writes to_json() to `path` (overwrites). Returns false on IO error.
  bool write(const std::string& path) const;

  /// Parses a report; throws PreconditionError on malformed input or a
  /// schema mismatch.
  [[nodiscard]] static BenchReport parse(const std::string& json_text);
  /// Reads and parses `path`; throws PreconditionError when unreadable.
  [[nodiscard]] static BenchReport load(const std::string& path);
};

/// One compared case, each side scored by its minimum wall over that
/// side's reports: noise only ever adds time, so the minimum estimates the
/// cost. ratio = new/old, so > 1 is a regression for wall_s. Throughput
/// changes are rendered for context; only the wall ratio gates.
struct BenchDiffRow {
  std::string name;
  double old_wall_s = 0.0;
  double new_wall_s = 0.0;
  double wall_ratio = 1.0;
  double old_events_per_s = 0.0;
  double new_events_per_s = 0.0;
  double old_msgs_per_s = 0.0;
  double new_msgs_per_s = 0.0;
  double old_rss_per_member_b = 0.0;  ///< informational, never gates
  double new_rss_per_member_b = 0.0;
  double old_instances_per_s = 0.0;  ///< informational, never gates
  double new_instances_per_s = 0.0;
  double old_p99_completion_ms = 0.0;  ///< informational, never gates
  double new_p99_completion_ms = 0.0;
  /// Counted work per side. A change between the sides is printed as "work
  /// changed" and never gates here: the work gate is the tier-1 test that
  /// pins the counts (tests/test_regression.cpp).
  std::uint64_t old_sim_events = 0;
  std::uint64_t new_sim_events = 0;
  std::uint64_t old_network_messages = 0;
  std::uint64_t new_network_messages = 0;
  bool regressed = false;   ///< wall_ratio > 1 + threshold

  [[nodiscard]] bool work_changed() const {
    return old_sim_events != new_sim_events ||
           old_network_messages != new_network_messages;
  }
};

struct BenchDiffReport {
  std::vector<BenchDiffRow> rows;
  std::vector<std::string> only_in_old;  ///< cases that disappeared
  std::vector<std::string> only_in_new;
  /// "old hier_n200: ..." — a case whose counts differ between two reports
  /// of one side, or that is missing from some of them: the workload is
  /// not deterministic, so its times do not compare.
  std::vector<std::string> inconsistent;
  double worst_ratio = 0.0;   ///< max wall_ratio over compared rows
  std::size_t regressions = 0;

  /// No regression, and every case compared on both sides.
  [[nodiscard]] bool ok() const {
    return regressions == 0 && only_in_old.empty() && only_in_new.empty() &&
           inconsistent.empty();
  }
  /// Human-readable comparison table.
  [[nodiscard]] std::string render() const;
};

/// Compares two builds from interleaved runs on one host: each side is one
/// or more reports of the same suite. `threshold` is the tolerated
/// fractional wall slowdown (0.2 = fail past +20%). Throws PreconditionError
/// when a side is empty or the suites differ; schema is checked at parse
/// time.
[[nodiscard]] BenchDiffReport bench_diff(
    const std::vector<BenchReport>& old_reports,
    const std::vector<BenchReport>& new_reports, double threshold);

/// Current process peak RSS in bytes (getrusage; 0 where unsupported).
[[nodiscard]] std::uint64_t peak_rss_bytes();

}  // namespace gridbox::obs
