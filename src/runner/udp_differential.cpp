#include "src/runner/udp_differential.h"

#include <exception>
#include <sstream>

#include "src/runner/experiment.h"

namespace gridbox::runner {

namespace {

/// One row's half of the agreement definition: honest, and every survivor
/// finished (the UDP side's deadline is checked by the caller).
[[nodiscard]] bool row_honest(const DifferentialRow& row) {
  return row.ran && protocols::honest(row.measurement) &&
         row.measurement.finished_nodes == row.measurement.survivors;
}

void describe_row(std::ostringstream& out, const char* label,
                  const DifferentialRow& row) {
  out << label << ": ";
  if (!row.ran) {
    out << "FAILED (" << row.error << ")\n";
    return;
  }
  const protocols::RunMeasurement& m = row.measurement;
  out << "finished " << m.finished_nodes << "/" << m.survivors
      << " survivors, completeness " << m.mean_completeness
      << ", audit_violations " << m.audit_violations
      << ", reconstruction_failures " << m.reconstruction_failures
      << ", true_value " << m.true_value << "\n";
}

}  // namespace

bool UdpDifferentialReport::ok() const {
  return row_honest(sim) && row_honest(udp) && udp_run.completed &&
         udp_run.invariant_violations == 0 &&
         sim.measurement.true_value == udp.measurement.true_value;
}

std::string UdpDifferentialReport::describe() const {
  std::ostringstream out;
  describe_row(out, "sim", sim);
  describe_row(out, "udp", udp);
  if (udp.ran) {
    out << "udp: completed=" << (udp_run.completed ? "yes" : "no")
        << " shards=" << udp_run.shards << " elapsed_us="
        << udp_run.elapsed.ticks()
        << " invariant_violations=" << udp_run.invariant_violations << "\n";
    if (!udp_run.first_violation.empty()) {
      out << "udp: first violation: " << udp_run.first_violation << "\n";
    }
  }
  out << (ok() ? "OK" : "DIVERGED") << "\n";
  return out.str();
}

UdpDifferentialReport run_udp_differential(const UdpRunConfig& config) {
  UdpDifferentialReport report;

  UdpRunConfig udp_config = config;
  udp_config.experiment.audit = true;
  udp_config.experiment.check_invariants = true;

  const ProtocolKind protocol = udp_config.experiment.protocol;
  report.sim = run_row(protocol, [&udp_config] {
    return run_experiment(udp_config.experiment).measurement;
  });
  report.udp = run_row(protocol, [&report, &udp_config] {
    report.udp_run = run_udp_experiment(udp_config);
    return report.udp_run.measurement;
  });
  return report;
}

}  // namespace gridbox::runner
