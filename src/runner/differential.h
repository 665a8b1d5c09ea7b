// The differential oracle: one verdict over protocols × substrate × instances.
//
// Every run it compares aggregates the SAME world (chaos script, seed, vote
// table) with provenance auditing forced on, so any disagreement is a bug
// in a protocol or a substrate, never in the scenario. Each run, or each
// instance of a stream, is one row; a run that throws is a row that did
// not run. The agreement rule:
//
//   - every row ran and is honest: zero audit violations, and every
//     estimate is exactly the aggregate of its audited vote set (a
//     wrong-but-complete answer cannot pass);
//   - the rows of one instance agree bit for bit on the ground-truth value
//     and on the participant cohort (both are derived, not measured);
//   - on the substrate axis every row also completed, every survivor
//     finished, and the invariant checker found nothing. The protocol axis
//     does not ask this: a partition can legitimately stop centralized
//     survivors from finishing.
//
// Estimates and message counts are NOT compared: under loss, runs
// legitimately deliver different message subsets. The CLIs exit 2 on
// divergence.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/runner/config.h"
#include "src/runner/udp_runtime.h"
#include "src/service/udp_service.h"

namespace gridbox::runner {

/// What a report compares, and so how strictly it judges each row.
enum class DifferentialAxis : std::uint8_t {
  kProtocols,   ///< the four protocols on the simulator
  kSubstrates,  ///< the simulator against UDP, one-shot or per instance
};

/// One run, or one instance of a stream, under the shared scenario.
struct DifferentialRow {
  std::string label;  ///< the protocol name, or "sim" / "udp"
  bool ran = false;   ///< false: the run threw (error holds the message)
  std::string error;
  /// `outcome.id` is the instance (0 for a one-shot run, whose cohort is
  /// the whole group).
  service::InstanceResult outcome;
};

struct DifferentialReport {
  DifferentialAxis axis = DifferentialAxis::kProtocols;
  std::vector<DifferentialRow> rows;

  /// The UDP side's own result, for gates that assert on it (dup counts,
  /// pipelining, demux, shard count); the verdict never reads it.
  /// run_udp_differential fills `udp_run`, run_service_differential
  /// `udp_service`.
  UdpRunResult udp_run;
  service::UdpServiceResult udp_service;

  /// True iff there is a row and every row satisfies the agreement rule.
  [[nodiscard]] bool ok() const;

  /// One line per row, diverging rows with their reasons, then OK /
  /// DIVERGED.
  [[nodiscard]] std::string describe() const;
};

/// `gridbox_sim --differential`: hier-gossip and the fully-distributed,
/// centralized and committee baselines on the simulator over `base` (its
/// `protocol` field is ignored; audit is forced on). Deterministic in
/// (base, base.seed).
[[nodiscard]] DifferentialReport run_differential(const ExperimentConfig& base);

/// `gridbox_node --differential`: the configured protocol in the
/// simulator, then over UDP. Audit and invariant checking are forced on.
[[nodiscard]] DifferentialReport run_udp_differential(
    const UdpRunConfig& config);

/// `gridbox_node --instances --differential`: the service stream in the
/// simulator, then over UDP, one row per instance and side. Audit and
/// invariant checking are forced on.
[[nodiscard]] DifferentialReport run_service_differential(
    const service::UdpServiceConfig& config);

}  // namespace gridbox::runner
