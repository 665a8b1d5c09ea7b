// The service runtime over real UDP sockets.
//
// run_udp_service drives the same ServiceEngine the simulator uses on the
// UdpMesh the one-shot UDP runner uses (src/runner/udp_mesh.h): one socket
// per reactor shard for the WHOLE service (the transport demultiplexes
// members by datagram header and the mux demultiplexes instances above
// it, so the fd count is constant no matter how many members or epochs
// stream through).
//
// runner::run_service_differential (src/runner/differential.h) runs the
// same ServiceConfig on both substrates and judges it per instance.
#pragma once

#include <cstdint>

#include "src/service/service.h"

namespace gridbox::service {

struct UdpServiceConfig {
  ServiceConfig service;

  /// Each reactor shard's socket binds the lowest free loopback port
  /// >= port_base; members are reached through the shard address table.
  std::uint16_t port_base = 39000;

  /// Reactor shard threads; 0 = the UdpMesh default, min(4, cores, N).
  std::size_t shards = 0;
};

struct UdpServiceResult {
  ServiceResult result;
  std::size_t shards = 0;
  /// Loop counts, folded in shard order from the reactors' telemetry
  /// lanes; eintr_retries counts poll and receive EINTR retries.
  std::uint64_t timers_fired = 0;
  std::uint64_t polls = 0;
  std::uint64_t eintr_retries = 0;
};

/// Runs the service over real sockets. Throws PreconditionError on setup
/// failures (no free port, fd limits that cannot be raised).
[[nodiscard]] UdpServiceResult run_udp_service(const UdpServiceConfig& config);

}  // namespace gridbox::service
