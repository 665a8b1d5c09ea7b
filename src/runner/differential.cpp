#include "src/runner/differential.h"

#include <cmath>
#include <exception>

#include "src/runner/experiment.h"

namespace gridbox::runner {

bool DifferentialReport::ok() const {
  if (rows.empty()) return false;
  double true_value = 0.0;
  bool have_true_value = false;
  for (const DifferentialRow& row : rows) {
    if (!row.ran || !protocols::honest(row.measurement)) return false;
    // All protocols aggregate the same vote table: the ground truth they
    // are judged against must be bit-identical across rows.
    if (!have_true_value) {
      true_value = row.measurement.true_value;
      have_true_value = true;
    } else if (row.measurement.true_value != true_value) {
      return false;
    }
  }
  return true;
}

DifferentialRow run_row(
    ProtocolKind protocol,
    const std::function<protocols::RunMeasurement()>& run) {
  DifferentialRow row;
  row.protocol = protocol;
  try {
    row.measurement = run();
    row.ran = true;
  } catch (const std::exception& e) {
    row.error = e.what();
  }
  return row;
}

DifferentialReport run_differential(const ExperimentConfig& base) {
  // The four protocols of the oracle (§7 compares exactly these; leader
  // election is the committee protocol's K' = 1 special case).
  static constexpr ProtocolKind kProtocols[] = {
      ProtocolKind::kHierGossip,
      ProtocolKind::kFullyDistributed,
      ProtocolKind::kCentralized,
      ProtocolKind::kCommittee,
  };

  DifferentialReport report;
  for (const ProtocolKind protocol : kProtocols) {
    ExperimentConfig config = base;
    config.protocol = protocol;
    config.audit = true;  // the oracle is the audit trail
    report.rows.push_back(run_row(
        protocol, [&config] { return run_experiment(config).measurement; }));
  }
  return report;
}

}  // namespace gridbox::runner
