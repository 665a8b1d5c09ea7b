// World-building shared by every driver: the simulated and real-socket
// one-shot runners and the service engine on either substrate.
//
// All of them must derive *bit-identical* ground truth from the same
// (ExperimentConfig, root Rng): the same votes, views, hash salt,
// hierarchy, audit bit order, and per-node RNG streams. That equality is
// what makes the differential oracle's substrate axis (differential.h)
// meaningful — any divergence it reports is a transport or protocol bug,
// never a world-construction artifact. World, make_nodes and make_checker
// are the one place each of those decisions is made.
//
// RNG discipline: every stream is derived from the root seed by a fixed tag
// (streams::*), so adding a consumer never perturbs another stream and the
// derivation order cannot drift apart between drivers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/agg/audit.h"
#include "src/agg/vote.h"
#include "src/common/rng.h"
#include "src/hashing/hash_function.h"
#include "src/hierarchy/hierarchy.h"
#include "src/membership/crash_model.h"
#include "src/membership/group.h"
#include "src/membership/view.h"
#include "src/net/chaos.h"
#include "src/net/fault_model.h"
#include "src/net/network.h"
#include "src/protocols/arena.h"
#include "src/protocols/invariant_checker.h"
#include "src/protocols/node.h"
#include "src/runner/config.h"
#include "src/sim/simulator.h"

namespace gridbox::runner {

/// Independent RNG stream tags, derived from the root seed.
namespace streams {
inline constexpr std::uint64_t kVote = 0x01;
inline constexpr std::uint64_t kNet = 0x02;
inline constexpr std::uint64_t kCrash = 0x03;
inline constexpr std::uint64_t kPosition = 0x04;
inline constexpr std::uint64_t kHashSalt = 0x05;
inline constexpr std::uint64_t kView = 0x06;
inline constexpr std::uint64_t kChaos = 0x07;
inline constexpr std::uint64_t kNodeBase = 0x1000;
}  // namespace streams

/// The view a given member starts with: complete, or an independent random
/// subset of the others at the configured coverage (self always included).
/// Consumes `view_rng` sequentially — call in ascending member order.
[[nodiscard]] membership::View make_view(const ExperimentConfig& config,
                                         const membership::Group& group,
                                         MemberId self, Rng& view_rng);

/// The run's ground-truth vote table for the configured workload.
[[nodiscard]] agg::VoteTable make_votes(const ExperimentConfig& config,
                                        const membership::Group& group,
                                        Rng& rng);

/// The paper's static loss (iid `ucastl`, or the `partl` split at N/2).
[[nodiscard]] net::FaultModel make_faults(const ExperimentConfig& config);

/// The well-known hash H: same salt at every member (it is group-wide
/// knowledge), different across seeds so box assignments vary per run.
[[nodiscard]] std::unique_ptr<hashing::HashFunction> make_hash(
    const ExperimentConfig& config, const membership::Group& group,
    const Rng& root);

/// Hierarchy fanout K for the configured protocol (hier-gossip takes K from
/// gossip.k; the hierarchical baselines from hierarchy_k).
[[nodiscard]] std::uint32_t hierarchy_fanout(const ExperimentConfig& config);

/// Audit registry with the bit order sorted by (box, id): a box's members
/// get contiguous bits, so the audit sets the protocols actually build
/// occupy narrow word windows. Returns null when config.audit is off.
[[nodiscard]] std::unique_ptr<agg::AuditRegistry> make_audit(
    const ExperimentConfig& config, const membership::Group& group,
    const hierarchy::GridBoxHierarchy& hier);

/// One protocol node of the configured kind.
[[nodiscard]] std::unique_ptr<protocols::ProtocolNode> make_node(
    const ExperimentConfig& config, MemberId id, double vote,
    membership::View view, protocols::NodeEnv env, Rng rng);

/// A one-shot run's chaos spec. Churn (join/recover) needs an epoch
/// boundary for a joiner to enter at, which only the service runtime has,
/// so a one-shot run rejects it.
[[nodiscard]] net::ChaosSpec one_shot_chaos(const ExperimentConfig& config);

/// One run's derived world (at least two members): the group (scattered positions when the hash,
/// workload or config asks for them), the ground-truth votes, the hash H,
/// the hierarchy over it, and the audit registry (null unless
/// config.audit). Non-movable: the topo-aware hash reads positions through
/// `group` and the hierarchy holds `*hash`.
struct World {
  World(const ExperimentConfig& config, const Rng& root);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  membership::Group group;
  agg::VoteTable votes;
  std::unique_ptr<hashing::HashFunction> hash;
  hierarchy::GridBoxHierarchy hier;
  std::unique_ptr<agg::AuditRegistry> audit;
};

/// The world's N nodes in member order. The view stream is consumed
/// sequentially and member m draws node stream kNodeBase + m, so every
/// driver builds identical nodes. Each node sees the world's hierarchy,
/// audit and liveness, `arena`, and `trace` as the head of its trace chain
/// (hier-gossip's GossipConfig::trace and the baselines' NodeEnv::trace);
/// `place(m, env)` fills member m's scheduler and transport. The caller
/// attaches and starts them.
[[nodiscard]] std::vector<std::unique_ptr<protocols::ProtocolNode>> make_nodes(
    const ExperimentConfig& config, const World& world, const Rng& root,
    protocols::StateArena& arena, protocols::gossip::GossipTrace* trace,
    const std::function<void(MemberId, protocols::NodeEnv&)>& place);

/// The hier-gossip run invariant checker, or null unless the protocol is
/// hier-gossip (the only one with trace hooks) and config.check_invariants
/// is set. It checks phases and slots against `hier` and merges against
/// `audit`, stamps time from `scheduler`, flags trace activity after
/// `deadline`, and forwards every event to `next`. `fail_fast` throws at the
/// first violation (simulator only: never across reactor threads);
/// `concurrent` arms it for trace events from several shard threads.
[[nodiscard]] std::unique_ptr<protocols::InvariantChecker> make_checker(
    const ExperimentConfig& config, const hierarchy::GridBoxHierarchy& hier,
    const agg::AuditRegistry* audit, const sim::Scheduler* scheduler,
    SimTime deadline, bool fail_fast, bool concurrent,
    protocols::gossip::GossipTrace* next);

/// True once every node of `nodes` has finished or its member has crashed
/// in `group`: nothing is left running the protocol.
[[nodiscard]] bool settled(
    const std::vector<std::unique_ptr<protocols::ProtocolNode>>& nodes,
    const membership::Group& group);

/// The paper's §7 crash clock: every round, each member alive in `group`
/// crashes with probability pf, drawing from the kCrash stream. Ticks as a
/// self-rescheduling action on one scheduler (on UDP: the control shard)
/// while `keep_going()` holds; it must outlive that scheduler's run.
class CrashClock {
 public:
  CrashClock(const ExperimentConfig& config, membership::Group& group,
             std::function<bool()> keep_going);

  /// Starts ticking one round from now; a no-op when pf is zero.
  void arm(sim::Scheduler& scheduler);

 private:
  void tick(sim::Scheduler& scheduler);

  membership::PerRoundCrash model_;
  SimTime round_;
  Rng rng_;
  membership::Group& group_;
  std::function<bool()> keep_going_;
  std::uint64_t next_round_ = 0;
};

/// The network both simulator drivers run on: the static fault pipeline,
/// uniform latency, the kNet stream, `group`'s liveness, and — when `chaos`
/// touches the network — its schedule on the kChaos stream.
[[nodiscard]] std::unique_ptr<net::SimNetwork> make_sim_network(
    const ExperimentConfig& config, sim::Simulator& simulator,
    const membership::Group& group, const net::ChaosSpec& chaos);

/// A real-time deadline: max(floor, factor × horizon). Generous multiples
/// keep host scheduling noise from failing a correct run.
[[nodiscard]] SimTime scaled_deadline(SimTime horizon, double factor,
                                      SimTime floor);

/// The floor both real-time drivers (the UDP run and the service's
/// instances) pass to scaled_deadline.
inline constexpr SimTime kDeadlineFloor = SimTime::seconds(5);

/// Theoretical protocol horizon on the run clock: when a healthy run should
/// have finished. Hier-gossip has the paper's closed form (Theorem 1:
/// start skew + (num_phases × rounds-per-phase + 1) rounds); the baselines
/// get a generous round-count blanket. The UDP runtime and the service
/// engine both size their deadlines from this.
[[nodiscard]] SimTime protocol_horizon(const ExperimentConfig& config,
                                       std::size_t num_phases);

}  // namespace gridbox::runner
