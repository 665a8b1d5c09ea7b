// A run's metrics snapshot: counters, gauges and fixed-bucket histograms,
// built once at the end of a run from the counters that own each count
// (run_experiment: NetworkStats, PhaseTimeline, the RunObserver's own
// tallies and the simulator's gauges).
//
// Deterministic: a snapshot is a pure function of the run (no wall clock,
// no addresses, no hash-map iteration order), and merge is associative and
// order-independent for counters/histograms, so the sweep reducer can fold
// per-run snapshots in slot order and get the same bytes at any --jobs
// value.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gridbox::obs {

/// Maps are ordered by metric name, so serialization is deterministic.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::uint64_t> gauges;
  /// Fixed-bucket histogram: bucket i holds samples v <= bounds[i] (first
  /// matching bound) and one overflow bucket holds samples above the last
  /// bound. Fixed bounds keep merges exact: bucket-wise addition.
  struct HistogramData {
    std::vector<std::uint64_t> bounds;  ///< ascending upper bounds
    std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 buckets

    void observe(std::uint64_t v) {
      const auto it = std::lower_bound(bounds.begin(), bounds.end(), v);
      ++counts[static_cast<std::size_t>(it - bounds.begin())];
    }
  };
  std::map<std::string, HistogramData> histograms;

  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Folds `other` in: counters and histogram buckets add, gauges take the
  /// max. Histograms under the same name must share bounds. Associative and
  /// commutative, so any fold order over a set of run snapshots produces the
  /// same result.
  void merge(const MetricsSnapshot& other);

  /// Counter value by name (0 when absent) — convenience for tests and
  /// reconciliation checks.
  [[nodiscard]] std::uint64_t counter_or_zero(const std::string& name) const;

  /// Compact JSON object: {"counters":{...},"gauges":{...},
  /// "histograms":{name:{"bounds":[...],"counts":[...]}}}. Deterministic
  /// (name-ordered, integer-only).
  [[nodiscard]] std::string to_json() const;
};

}  // namespace gridbox::obs
