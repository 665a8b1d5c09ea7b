// Run-level measurement: turns per-node outcomes into the paper's metrics.
//
// Completeness (§2) is "the percentage of group member votes taken into
// account in the final global function value calculated at a random member".
// Per node that is the partial's count() / N — exact because merges are over
// disjoint sets (the audit registry verifies this; any violation is surfaced
// here). A surviving member with no estimate at all counts as completeness 0;
// crashed members are not sampled.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/agg/audit.h"
#include "src/agg/vote.h"
#include "src/membership/group.h"
#include "src/net/stats.h"
#include "src/protocols/node.h"

namespace gridbox::protocols {

struct RunMeasurement {
  std::size_t group_size = 0;
  std::size_t survivors = 0;        ///< members alive at the end of the run
  std::size_t finished_nodes = 0;   ///< survivors that delivered an estimate

  double mean_completeness = 0.0;   ///< avg over survivors (unfinished = 0)
  double min_completeness = 0.0;
  double mean_incompleteness = 1.0;

  /// Mean |node estimate − true aggregate| over survivors with an estimate;
  /// the "accuracy" interpretation of completeness (§2).
  double mean_abs_error = 0.0;
  double true_value = 0.0;

  std::uint64_t protocol_messages = 0;  ///< sum of per-node send counts
  std::uint64_t network_messages = 0;   ///< accepted by the transport
  std::uint64_t max_rounds = 0;         ///< slowest node's round count
  SimTime last_finish = SimTime::zero();
  std::uint64_t audit_violations = 0;   ///< nonzero = double counting bug

  /// Finished nodes whose estimate is NOT the exact aggregate of their
  /// audited vote set (see reconstruction oracle below); nonzero means a
  /// wrong-but-complete answer. Only computed when an audit registry is
  /// present.
  std::uint64_t reconstruction_failures = 0;
};

/// The honesty half of the differential oracle's rule and of every clean
/// check: no merge double counted (zero audit violations) and every estimate
/// is exactly the aggregate of its audited vote set (zero reconstruction
/// failures). Completion is judged by each caller — the simulator runs to
/// idle, a UDP run answers to a wall-clock deadline.
[[nodiscard]] inline bool honest(const RunMeasurement& m) {
  return m.audit_violations == 0 && m.reconstruction_failures == 0;
}

[[nodiscard]] RunMeasurement measure_run(
    const membership::Group& group,
    const std::vector<std::unique_ptr<ProtocolNode>>& nodes,
    const agg::VoteTable& votes, agg::AggregateKind kind,
    const net::NetworkStats& net_stats, const agg::AuditRegistry* audit);

/// Reconstruction oracle: re-aggregates `node`'s audited vote set from the
/// ground-truth vote table and compares it against the node's estimate —
/// count, min, and max must match exactly; sum and sum-of-squares to 1e-9
/// relative (merge order may differ from the protocol's). A complete but
/// wrong answer can never pass this. Returns true when the estimate is
/// faithful; nodes without an audit token pass vacuously (nothing claimed).
[[nodiscard]] bool estimate_reconstructs(const ProtocolNode& node,
                                         const agg::VoteTable& votes,
                                         const agg::AuditRegistry& audit);

}  // namespace gridbox::protocols
