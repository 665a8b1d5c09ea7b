#include "src/runner/differential.h"

#include <algorithm>
#include <bit>
#include <exception>
#include <functional>
#include <iomanip>
#include <sstream>

#include "src/runner/experiment.h"

namespace gridbox::runner {

namespace {

/// The agreement rule (differential.h): why each row diverges, "" where it
/// agrees. A row is held against the first row of its instance that ran.
std::vector<std::string> disagreements(const std::vector<DifferentialRow>& rows,
                                       DifferentialAxis axis) {
  std::vector<std::string> why;
  for (const DifferentialRow& row : rows) {
    if (!row.ran) {
      why.push_back("did not run: " + row.error);
      continue;
    }
    const service::InstanceResult& r = row.outcome;
    const protocols::RunMeasurement& m = r.measurement;
    const DifferentialRow& ref = *std::find_if(
        rows.begin(), rows.end(), [&r](const DifferentialRow& other) {
          return other.ran && other.outcome.id == r.id;
        });
    const service::InstanceResult& truth = ref.outcome;
    std::ostringstream out;
    out << std::setprecision(17);  // a true_value mismatch may be one ulp
    const auto fault = [&out](bool diverges, const auto&... what) {
      if (!diverges) return;
      if (out.tellp() > 0) out << "; ";
      (out << ... << what);
    };
    fault(!protocols::honest(m), "dishonest: audit violations ",
          m.audit_violations, ", reconstruction failures ",
          m.reconstruction_failures);
    fault(std::bit_cast<std::uint64_t>(m.true_value) !=
              std::bit_cast<std::uint64_t>(truth.measurement.true_value),
          "true_value ", m.true_value, " differs from ", ref.label, "'s ",
          truth.measurement.true_value);
    fault(r.participants != truth.participants, "participants ",
          r.participants, " differ from ", ref.label, "'s ",
          truth.participants);
    if (axis == DifferentialAxis::kSubstrates) {
      fault(!r.completed, "did not complete");
      fault(m.finished_nodes != m.survivors, "finished ", m.finished_nodes,
            "/", m.survivors, " survivors");
      fault(r.invariant_violations != 0, "invariant violations ",
            r.invariant_violations, ", first: ", r.first_violation);
    }
    why.push_back(out.str());
  }
  return why;
}

/// Runs one side of an oracle: `run` yields the instances it answered.
/// Each id in [0, instances) it did not answer, because it threw or lost
/// that instance, becomes a row that did not run.
void add_side(
    DifferentialReport& report, const std::string& label,
    std::size_t instances,
    const std::function<std::vector<service::InstanceResult>()>& run) {
  std::vector<DifferentialRow> rows(instances);
  std::string error = "no result for this instance";
  try {
    for (service::InstanceResult& r : run()) {
      if (r.id >= rows.size()) rows.resize(r.id + 1);
      rows[r.id].ran = true;
      rows[r.id].outcome = std::move(r);
    }
  } catch (const std::exception& e) {
    error = e.what();
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].label = label;
    rows[i].outcome.id = static_cast<std::uint32_t>(i);
    if (!rows[i].ran) rows[i].error = error;
    report.rows.push_back(std::move(rows[i]));
  }
}

/// A one-shot run as instance 0: its cohort is the whole group.
service::InstanceResult one_shot(const protocols::RunMeasurement& m,
                                 const net::NetworkStats& network) {
  service::InstanceResult r;
  r.completed = true;
  r.participants = m.group_size;
  r.measurement = m;
  r.network = network;
  return r;
}

/// The simulator runs to idle, so a run that returns completed.
std::vector<service::InstanceResult> sim_one_shot(
    const ExperimentConfig& config) {
  const RunResult r = run_experiment(config);
  return {one_shot(r.measurement, r.network)};
}

}  // namespace

bool DifferentialReport::ok() const {
  const std::vector<std::string> why = disagreements(rows, axis);
  return !rows.empty() &&
         std::ranges::all_of(why, [](const auto& w) { return w.empty(); });
}

std::string DifferentialReport::describe() const {
  const std::vector<std::string> why = disagreements(rows, axis);
  std::ostringstream out;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const DifferentialRow& row = rows[i];
    const service::InstanceResult& r = row.outcome;
    const protocols::RunMeasurement& m = r.measurement;
    out << row.label << ": instance " << r.id << ":";
    if (row.ran) {
      out << " completed " << (r.completed ? "yes" : "no") << ", finished "
          << m.finished_nodes << "/" << m.survivors << " survivors"
          << ", participants " << r.participants << ", completeness "
          << m.mean_completeness << ", true_value " << m.true_value;
    }
    if (!why[i].empty()) out << " -- DIVERGED: " << why[i];
    out << "\n";
  }
  out << (ok() ? "OK" : "DIVERGED") << "\n";
  return out.str();
}

DifferentialReport run_differential(const ExperimentConfig& base) {
  DifferentialReport report;
  // §7 compares exactly these four; leader election is the committee
  // protocol's K' = 1 special case.
  for (const ProtocolKind protocol :
       {ProtocolKind::kHierGossip, ProtocolKind::kFullyDistributed,
        ProtocolKind::kCentralized, ProtocolKind::kCommittee}) {
    ExperimentConfig config = base;
    config.protocol = protocol;
    config.audit = true;  // the oracle is the audit trail
    add_side(report, to_string(protocol), 1,
             [&config] { return sim_one_shot(config); });
  }
  return report;
}

DifferentialReport run_udp_differential(const UdpRunConfig& config) {
  UdpRunConfig forced = config;
  forced.experiment.audit = true;
  forced.experiment.check_invariants = true;

  DifferentialReport report;
  report.axis = DifferentialAxis::kSubstrates;
  add_side(report, "sim", 1,
           [&forced] { return sim_one_shot(forced.experiment); });
  add_side(report, "udp", 1, [&forced, &report] {
    const UdpRunResult& udp = report.udp_run = run_udp_experiment(forced);
    service::InstanceResult r = one_shot(udp.measurement, udp.network);
    r.completed = udp.completed;
    r.invariant_violations = udp.invariant_violations;
    r.first_violation = udp.first_violation;
    return std::vector<service::InstanceResult>{r};
  });
  return report;
}

DifferentialReport run_service_differential(
    const service::UdpServiceConfig& config) {
  service::UdpServiceConfig forced = config;
  forced.service.experiment.audit = true;
  forced.service.experiment.check_invariants = true;

  DifferentialReport report;
  report.axis = DifferentialAxis::kSubstrates;
  const std::size_t instances = forced.service.instances;
  add_side(report, "sim", instances, [&forced] {
    return service::run_service_experiment(forced.service).instances;
  });
  add_side(report, "udp", instances, [&forced, &report] {
    report.udp_service = service::run_udp_service(forced);
    return report.udp_service.result.instances;
  });
  return report;
}

}  // namespace gridbox::runner
