// The real-socket shard mesh under both UDP drivers (run_udp_experiment and
// run_udp_service): reactor threads, one UdpTransport and chaos shim per
// reactor, and the telemetry hub folding the reactors' lanes in shard
// order. It is the single owner of that wiring — which shard owns a member,
// the default shard count, how the threads run, join and report errors.
//
// Shard s owns the members with id % shards == s end to end (DESIGN.md
// §14): their timers and deliveries, dispatched lock-free on its thread,
// through the shard's one socket. The mesh fills the member -> address
// table every transport shares, so no code computes a port from a member
// id. Shard 0 is the control shard: driver bookkeeping (crash clock,
// service engine) and the telemetry sampler run on its reactor.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/membership/group.h"
#include "src/net/reactor.h"
#include "src/net/stats.h"
#include "src/net/udp_transport.h"
#include "src/obs/telemetry.h"
#include "src/runner/config.h"
#include "src/sim/scheduler.h"

namespace gridbox::net {
class TelemetrySocket;
}  // namespace gridbox::net

namespace gridbox::runner {

class UdpMesh {
 public:
  /// Checks the fd budget, then builds `shards` reactors (0 = min(4, cores,
  /// N)), each with a transport whose socket binds the lowest free port >=
  /// `port_base`, reading liveness from `group` (which must
  /// outlive the mesh), and installs the shared member -> address table.
  /// Under loss, a partition or a network chaos directive, transport s gets
  /// its own chaos shim on stream kChaos.derive(s): real sockets have no
  /// global send order, so parity with the simulator is statistical, not
  /// per-message. With telemetry on, a sampler renders the hub.
  UdpMesh(const ExperimentConfig& config, std::uint16_t port_base,
          std::size_t shards, const membership::Group& group);
  ~UdpMesh();
  UdpMesh(const UdpMesh&) = delete;
  UdpMesh& operator=(const UdpMesh&) = delete;

  [[nodiscard]] std::size_t shard_count() const { return reactors_.size(); }
  [[nodiscard]] std::size_t shard_of(MemberId m) const;
  [[nodiscard]] net::Reactor& reactor_of(MemberId m) const;
  [[nodiscard]] net::UdpTransport& transport_of(MemberId m) const;
  /// Shard 0's reactor: driver bookkeeping and telemetry run here.
  [[nodiscard]] net::Reactor& control() const { return *reactors_.front(); }

  /// Runs `action` on member m's shard thread.
  void post(MemberId m, sim::Action action) const;

  /// Counts pending timers matching `pred` on every shard — hopping the
  /// shards in turn, since counting is only legal on a shard's own thread —
  /// then calls `done(total)` on the control shard.
  void count_timers(std::function<bool(const sim::TimerTarget*)> pred,
                    std::function<void(std::size_t)> done) const;

  /// The shard-ordered fold over every reactor's lane. Exact after run()
  /// (the joins order the shards' writes before the read); a live, possibly
  /// torn sample while the shards run.
  [[nodiscard]] obs::TelemetryHub& telemetry() const { return *hub_; }

  /// Starts every shard's clock at one epoch (they read zero until then,
  /// through setup), runs every shard on its own thread until `done()` (a
  /// global probe, not per shard) or the deadline, joins them all, rethrows
  /// the first shard error, and takes the closing telemetry sample. A shard
  /// leaving its loop wakes the others to probe `done()`. Call once, after
  /// all pre-run scheduling; the thread launch publishes it to the shards.
  /// Returns true iff every shard saw `done()` before the deadline.
  bool run(const std::function<bool()>& done, SimTime deadline);

  /// Transport tallies summed in shard order, read after run(): frames a
  /// shard socket was handed and never read count as dropped.
  [[nodiscard]] net::NetworkStats network() const;

 private:
  struct SamplerTick;

  std::vector<std::unique_ptr<net::Reactor>> reactors_;
  std::vector<std::unique_ptr<net::UdpTransport>> transports_;
  std::unique_ptr<obs::TelemetryHub> hub_;
  std::unique_ptr<obs::TelemetrySampler> sampler_;
  std::unique_ptr<SamplerTick> sampler_tick_;
  std::unique_ptr<net::TelemetrySocket> telemetry_socket_;
};

}  // namespace gridbox::runner
