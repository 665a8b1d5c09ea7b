// Differential protocol oracle.
//
// Runs hierarchical gossip and the fully-distributed, centralized, and
// committee baselines over the SAME chaos script, seed, and vote table, with
// provenance auditing forced on. Every protocol computes the same global
// function under the same adversity, so any disagreement is a bug in a
// protocol, not in the scenario: each node's estimate must be
// reconstructible from the exact aggregate of its audited vote set
// (a wrong-but-complete answer can never pass), no merge may double count,
// and hier-gossip additionally runs under the full invariant checker.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "src/protocols/protocol_stats.h"
#include "src/runner/config.h"

namespace gridbox::runner {

/// Outcome of one protocol under the shared scenario.
struct DifferentialRow {
  ProtocolKind protocol = ProtocolKind::kHierGossip;
  bool ran = false;    ///< false: the run threw (error holds the message)
  std::string error;
  protocols::RunMeasurement measurement;
};

/// Runs one row of an oracle: `run` yields the measurement, and a throw
/// becomes a row that did not run, carrying the error message.
[[nodiscard]] DifferentialRow run_row(
    ProtocolKind protocol,
    const std::function<protocols::RunMeasurement()>& run);

struct DifferentialReport {
  std::vector<DifferentialRow> rows;

  /// True iff every protocol ran to completion with zero audit violations,
  /// zero reconstruction failures, and the identical ground-truth value.
  [[nodiscard]] bool ok() const;
};

/// Runs the differential oracle over `base` (its `protocol` field is
/// ignored; audit is forced on). Deterministic in (base, base.seed).
[[nodiscard]] DifferentialReport run_differential(const ExperimentConfig& base);

}  // namespace gridbox::runner
