#include "src/service/udp_service.h"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "src/common/ensure.h"
#include "src/runner/udp_mesh.h"

namespace gridbox::service {

UdpServiceResult run_udp_service(const UdpServiceConfig& udp_config) {
  const ServiceConfig& service = udp_config.service;
  const runner::ExperimentConfig& config = service.experiment;
  expects(config.group_size >= 2, "need at least two members");

  // One socket per shard for the whole service — the mux keeps the fd
  // count independent of the instance count.
  membership::Group shared_group(config.group_size);
  runner::UdpMesh mesh(config, udp_config.port_base, udp_config.shards,
                       shared_group);

  InstanceMux::Options mopt;
  mopt.group_size = config.group_size;
  mopt.transport_of = [&mesh](MemberId m) -> net::Transport* {
    return &mesh.transport_of(m);
  };
  mopt.max_instances = service.instances;
  mopt.shard_count = mesh.shard_count();
  mopt.shard_of = [&mesh](MemberId m) { return mesh.shard_of(m); };
  InstanceMux mux(std::move(mopt));
  mux.attach_all();  // members route here, once, for every epoch to come

  // The engine's whole schedule lands on the control shard before the
  // threads start; all later rescheduling happens on that thread. Its
  // stream counts and the telemetry sampler both live on the control
  // shard, so the service section is written and read on one thread.
  ServiceEngine::Substrate substrate;
  substrate.mesh = &mesh;
  ServiceEngine engine(service, mux, shared_group, substrate);
  mesh.telemetry().watch_service(engine.counts());
  engine.begin();
  (void)mesh.run([&engine]() { return engine.finished(); },
                 engine.global_deadline());

  UdpServiceResult result;
  result.result = engine.collect();
  // The loop counts live in the reactors' lanes; fold them in shard order.
  const obs::LaneSnapshot loop = mesh.telemetry().snapshot_total();
  result.shards = mesh.shard_count();
  result.timers_fired = loop.timers_fired;
  result.polls = loop.polls;
  result.eintr_retries = loop.eintr_retries;
  mux.detach_all();
  return result;
}

namespace {

/// The one-shot oracle's agreement definition, applied to one instance on
/// one substrate.
void check_side(const char* side, const InstanceResult& row,
                std::ostringstream& why) {
  if (!row.completed) why << side << " did not complete; ";
  if (!protocols::honest(row.measurement)) {
    why << side << " dishonest: audit violations "
        << row.measurement.audit_violations << ", reconstruction failures "
        << row.measurement.reconstruction_failures << "; ";
  }
  if (row.invariant_violations != 0) {
    why << side << " invariant violations: " << row.invariant_violations
        << " (" << row.first_violation << "); ";
  }
  if (row.measurement.finished_nodes != row.measurement.survivors) {
    why << side << " finished " << row.measurement.finished_nodes << "/"
        << row.measurement.survivors << " survivors; ";
  }
}

}  // namespace

bool ServiceDifferentialReport::ok() const {
  if (rows.empty()) return false;
  return std::all_of(rows.begin(), rows.end(),
                     [](const ServiceDifferentialRow& r) { return r.ok; });
}

std::string ServiceDifferentialReport::describe() const {
  std::ostringstream out;
  out << "service differential: " << rows.size() << " instances, sim "
      << sim.metrics.completed << " completed / " << sim.metrics.failed
      << " failed, udp " << udp.result.metrics.completed << " completed / "
      << udp.result.metrics.failed << " failed\n";
  for (const ServiceDifferentialRow& row : rows) {
    if (!row.ok) out << "  instance " << row.id << ": " << row.why << "\n";
  }
  out << (ok() ? "OK" : "DIVERGED") << "\n";
  return out.str();
}

ServiceDifferentialReport run_service_differential(
    const UdpServiceConfig& config) {
  UdpServiceConfig forced = config;
  forced.service.experiment.audit = true;
  forced.service.experiment.check_invariants = true;

  ServiceDifferentialReport report;
  report.sim = run_service_experiment(forced.service);
  report.udp = run_udp_service(forced);

  const std::vector<InstanceResult>& sim_rows = report.sim.instances;
  const std::vector<InstanceResult>& udp_rows = report.udp.result.instances;
  const std::size_t count = std::max(sim_rows.size(), udp_rows.size());
  report.rows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ServiceDifferentialRow row;
    row.id = static_cast<std::uint32_t>(i);
    if (i >= sim_rows.size() || i >= udp_rows.size()) {
      row.ok = false;
      row.why = "instance missing on one substrate";
      report.rows.push_back(std::move(row));
      continue;
    }
    const InstanceResult& s = sim_rows[i];
    const InstanceResult& u = udp_rows[i];
    std::ostringstream why;
    check_side("sim", s, why);
    check_side("udp", u, why);
    // Ground truth is derived, not measured: instance i's true value must
    // be bit-identical across substrates or world derivation has drifted.
    if (s.measurement.true_value != u.measurement.true_value) {
      why << "true value mismatch (sim " << s.measurement.true_value
          << " vs udp " << u.measurement.true_value << "); ";
    }
    if (s.participants != u.participants) {
      why << "participant cohorts differ (sim " << s.participants
          << " vs udp " << u.participants << "); ";
    }
    row.why = why.str();
    row.ok = row.why.empty();
    report.rows.push_back(std::move(row));
  }
  return report;
}

}  // namespace gridbox::service
