#include "src/service/udp_service.h"

#include <utility>

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

}  // namespace gridbox::service
