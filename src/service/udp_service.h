// The service runtime over real UDP sockets, and its differential oracle.
//
// run_udp_service drives the same ServiceEngine the simulator uses on the
// UdpMesh the one-shot UDP runner uses (src/runner/udp_mesh.h): one socket
// per reactor shard for the WHOLE service (the transport demultiplexes
// members by datagram header and the mux demultiplexes instances above
// it, so the fd count is constant no matter how many members or epochs
// stream through).
//
// run_service_differential is the per-instance differential oracle: the
// identical ServiceConfig runs on both substrates, and every instance of
// the stream must independently satisfy the one-shot oracle's agreement
// definition (completed, honest, finished == survivors) with bit-identical
// ground truth — both substrates derive
// instance i's world from the same Rng(seed).derive(kInstanceWorld)
// .derive(i) root, so true values must match bit for bit.
#pragma once

#include <cstdint>
#include <string>

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

/// One instance's verdict in the service differential.
struct ServiceDifferentialRow {
  std::uint32_t id = 0;
  bool ok = false;
  std::string why;  ///< empty when ok
};

struct ServiceDifferentialReport {
  ServiceResult sim;
  UdpServiceResult udp;
  std::vector<ServiceDifferentialRow> rows;  ///< one per instance id

  /// True iff every instance of the stream agrees on both substrates.
  [[nodiscard]] bool ok() const;

  /// Human-readable summary: service totals, then every diverging
  /// instance, ending in OK / DIVERGED.
  [[nodiscard]] std::string describe() const;
};

/// Runs the per-instance differential oracle. Audit and invariant checking
/// are forced on for both sides.
[[nodiscard]] ServiceDifferentialReport run_service_differential(
    const UdpServiceConfig& config);

}  // namespace gridbox::service
