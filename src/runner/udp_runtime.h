// The real-socket runner: the same experiment, over UDP on loopback.
//
// run_udp_experiment builds the identical world run_experiment builds (the
// one world builder, world_setup.h) but wires the nodes to a UdpMesh
// (udp_mesh.h: reactor threads and UDP transports, shard ownership, no
// dispatch lock) instead of the simulator. Protocol code is byte-for-byte
// the same; only the NodeEnv seams differ. The differential oracle's
// substrate axis (differential.h) is built on exactly that: any
// disagreement is a transport or timing bug, never a world-construction
// artifact.
//
// Real time replaces virtual time, so two things change at the harness
// level: the run needs a wall-clock completion deadline (with a generous
// multiplier — host scheduling noise must not fail a correct run), and the
// hier-gossip invariant checker runs with fail_fast off, reporting
// violations after the threads join instead of throwing across them.
// Completion is a per-member board folded into one atomic, so the shards'
// done-probe is one load, not a scan of every node.
#pragma once

#include <cstdint>
#include <string>

#include "src/net/stats.h"
#include "src/protocols/protocol_stats.h"
#include "src/runner/config.h"

namespace gridbox::runner {

struct UdpRunConfig {
  /// The experiment to run. Execution-side fields that only exist in the
  /// simulator are ignored: latency_lo/hi (loopback has its own latency),
  /// observability sinks, and `jobs`. Chaos specs and ucast/partition loss
  /// apply through the userspace send shim.
  ExperimentConfig experiment;

  /// Each reactor shard's socket binds the lowest free loopback port
  /// >= port_base; members are reached through the shard address table.
  std::uint16_t port_base = 38000;

  /// Reactor shard threads; 0 = the UdpMesh default, min(4, cores, N).
  std::size_t shards = 0;

  /// Wall-clock completion deadline = max(kDeadlineFloor, deadline_factor ×
  /// the protocol's theoretical horizon). Generous by default: a missed
  /// deadline means "did not complete", never a flaky margin.
  double deadline_factor = 20.0;
};

struct UdpRunResult {
  protocols::RunMeasurement measurement;
  net::NetworkStats network;  ///< summed over all transport shards

  bool completed = false;   ///< every node finished/crashed before deadline
  SimTime elapsed = SimTime::zero();  ///< real run time (µs since epoch)
  std::size_t shards = 0;
  /// Loop counts, folded in shard order from the reactors' telemetry
  /// lanes; eintr_retries counts poll and receive EINTR retries.
  std::uint64_t timers_fired = 0;
  std::uint64_t polls = 0;
  std::uint64_t eintr_retries = 0;

  /// Invariant-checker findings (hier-gossip only; empty otherwise or when
  /// check_invariants is off). Includes members unfinished at deadline.
  std::uint64_t invariant_violations = 0;
  std::string first_violation;
};

/// Runs the experiment over real sockets. Throws PreconditionError on
/// setup failures (no free port, fd limits that cannot be raised).
[[nodiscard]] UdpRunResult run_udp_experiment(const UdpRunConfig& config);

/// Raises RLIMIT_NOFILE's soft limit toward the hard limit until at least
/// `need` descriptors fit (shard sockets + slack). Returns the resulting soft
/// limit. Idempotent; never lowers the limit. When the limit actually
/// moves, logs the old -> new values to stderr once.
std::uint64_t raise_fd_limit(std::uint64_t need);

/// raise_fd_limit, then throws PreconditionError with an actionable
/// message (needed fds vs soft/hard limit, plus the `ulimit -n` to run)
/// when the run still cannot fit — instead of EMFILE deep in socket setup.
void require_fd_capacity(std::uint64_t need);

}  // namespace gridbox::runner
