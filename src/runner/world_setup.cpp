#include "src/runner/world_setup.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "src/common/ensure.h"
#include "src/hashing/fair_hash.h"
#include "src/hashing/topo_hash.h"
#include "src/protocols/baseline/leader_election.h"
#include "src/protocols/gossip/hier_gossip.h"

namespace gridbox::runner {

namespace {

[[nodiscard]] membership::Group positioned_group(const ExperimentConfig& config,
                                                 const Rng& root) {
  expects(config.group_size >= 2, "need at least two members");
  membership::Group group(config.group_size);
  if (config.assign_positions || config.hash == HashKind::kTopoAware ||
      config.workload == WorkloadKind::kField) {
    Rng pos_rng = root.derive(streams::kPosition);
    group.scatter_positions(pos_rng);
  }
  return group;
}

[[nodiscard]] agg::VoteTable derived_votes(const ExperimentConfig& config,
                                           const membership::Group& group,
                                           const Rng& root) {
  Rng vote_rng = root.derive(streams::kVote);
  return make_votes(config, group, vote_rng);
}

}  // namespace

net::ChaosSpec one_shot_chaos(const ExperimentConfig& config) {
  net::ChaosSpec chaos = net::ChaosSpec::parse(config.chaos_spec);
  expects(!chaos.has_churn(),
          "join/recover directives require the service runtime");
  return chaos;
}

World::World(const ExperimentConfig& config, const Rng& root)
    : group(positioned_group(config, root)),
      votes(derived_votes(config, group, root)),
      hash(make_hash(config, group, root)),
      hier(config.group_size, hierarchy_fanout(config), *hash),
      audit(make_audit(config, group, hier)) {}

std::vector<std::unique_ptr<protocols::ProtocolNode>> make_nodes(
    const ExperimentConfig& config, const World& world, const Rng& root,
    protocols::StateArena& arena, protocols::gossip::GossipTrace* trace,
    const std::function<void(MemberId, protocols::NodeEnv&)>& place) {
  protocols::NodeEnv env;
  env.hierarchy = &world.hier;
  env.audit = world.audit.get();
  env.arena = &arena;
  env.is_alive = [group = &world.group](MemberId m) {
    return group->is_alive(m);
  };
  env.kind = config.aggregate;
  env.trace = trace;
  ExperimentConfig node_config = config;
  node_config.gossip.trace = trace;

  Rng view_rng = root.derive(streams::kView);
  std::vector<std::unique_ptr<protocols::ProtocolNode>> nodes;
  nodes.reserve(config.group_size);
  for (const MemberId m : world.group.members()) {
    protocols::NodeEnv member_env = env;
    place(m, member_env);
    nodes.push_back(make_node(node_config, m, world.votes.of(m),
                              make_view(config, world.group, m, view_rng),
                              std::move(member_env),
                              root.derive(streams::kNodeBase + m.value())));
  }
  return nodes;
}

std::unique_ptr<protocols::InvariantChecker> make_checker(
    const ExperimentConfig& config, const hierarchy::GridBoxHierarchy& hier,
    const agg::AuditRegistry* audit, const sim::Scheduler* scheduler,
    SimTime deadline, bool fail_fast, bool concurrent,
    protocols::gossip::GossipTrace* next) {
  if (!config.check_invariants ||
      config.protocol != ProtocolKind::kHierGossip) {
    return nullptr;
  }
  protocols::InvariantChecker::Config icfg;
  icfg.group_size = config.group_size;
  icfg.fanout = config.gossip.k;
  icfg.num_phases = hier.num_phases();
  icfg.scheduler = scheduler;
  icfg.audit = audit;
  icfg.deadline = deadline;
  icfg.fail_fast = fail_fast;
  icfg.concurrent = concurrent;
  icfg.next = next;
  return std::make_unique<protocols::InvariantChecker>(icfg);
}

bool settled(const std::vector<std::unique_ptr<protocols::ProtocolNode>>& nodes,
             const membership::Group& group) {
  return std::all_of(nodes.begin(), nodes.end(), [&group](const auto& node) {
    return node->finished() || !group.is_alive(node->self());
  });
}

CrashClock::CrashClock(const ExperimentConfig& config, membership::Group& group,
                       std::function<bool()> keep_going)
    : model_(config.crash_probability),
      round_(config.round_duration()),
      rng_(Rng(config.seed).derive(streams::kCrash)),
      group_(group),
      keep_going_(std::move(keep_going)) {}

void CrashClock::arm(sim::Scheduler& scheduler) {
  if (model_.probability() <= 0.0) return;
  scheduler.schedule_after(round_, [this, &scheduler]() { tick(scheduler); });
}

void CrashClock::tick(sim::Scheduler& scheduler) {
  (void)group_.apply_round_crashes(model_, next_round_++, rng_);
  if (keep_going_()) arm(scheduler);
}

std::unique_ptr<net::SimNetwork> make_sim_network(
    const ExperimentConfig& config, sim::Simulator& simulator,
    const membership::Group& group, const net::ChaosSpec& chaos) {
  const Rng root(config.seed);
  auto network = std::make_unique<net::SimNetwork>(
      simulator, make_faults(config),
      std::make_unique<net::UniformLatency>(config.latency_lo,
                                            config.latency_hi),
      root.derive(streams::kNet));
  network->set_liveness([&group](MemberId m) { return group.is_alive(m); });
  if (chaos.affects_network()) {
    network->install_chaos(std::make_unique<net::ChaosSchedule>(
        chaos, make_faults(config), config.group_size,
        root.derive(streams::kChaos)));
  }
  return network;
}

SimTime scaled_deadline(SimTime horizon, double factor, SimTime floor) {
  expects(std::isfinite(factor) && factor > 0.0,
          "deadline factor must be positive and finite");
  const double micros = static_cast<double>(horizon.ticks()) * factor;
  // Casting an out-of-range double to an integer is undefined.
  expects(micros < 0x1p63, "deadline factor too large: deadline out of range");
  return std::max(floor,
                  SimTime::micros(static_cast<SimTime::underlying>(micros)));
}

membership::View make_view(const ExperimentConfig& config,
                           const membership::Group& group, MemberId self,
                           Rng& view_rng) {
  if (config.view_coverage >= 1.0) return group.full_view();
  expects(config.view_coverage > 0.0, "view coverage must be positive");
  expects(config.protocol == ProtocolKind::kHierGossip ||
              config.protocol == ProtocolKind::kFullyDistributed,
          "partial views: leader/committee baselines need complete views");
  std::vector<MemberId> known;
  known.push_back(self);
  for (const MemberId m : group.members()) {
    if (m != self && view_rng.bernoulli(config.view_coverage)) {
      known.push_back(m);
    }
  }
  return membership::View{std::move(known)};
}

agg::VoteTable make_votes(const ExperimentConfig& config,
                          const membership::Group& group, Rng& rng) {
  switch (config.workload) {
    case WorkloadKind::kUniform:
      return agg::uniform_votes(config.group_size, rng, config.vote_lo,
                                config.vote_hi);
    case WorkloadKind::kNormal:
      return agg::normal_votes(config.group_size, rng, config.vote_mu,
                               config.vote_sigma);
    case WorkloadKind::kField:
      expects(group.has_positions(),
              "field workload requires assign_positions");
      return agg::field_votes(
          config.group_size, [&group](MemberId m) { return group.position(m); },
          rng, config.vote_mu, config.vote_sigma, config.vote_sigma * 0.1);
  }
  ensures(false, "unhandled workload kind");
  return agg::uniform_votes(config.group_size, rng, 0.0, 1.0);
}

net::FaultModel make_faults(const ExperimentConfig& config) {
  if (config.partition_loss >= 0.0) {
    return net::FaultModel::split_at(
        static_cast<MemberId::underlying>(config.group_size / 2),
        config.ucast_loss, config.partition_loss);
  }
  // A negative --loss runs lossless, as it always has.
  return net::FaultModel::iid(std::max(0.0, config.ucast_loss));
}

std::unique_ptr<hashing::HashFunction> make_hash(const ExperimentConfig& config,
                                                 const membership::Group& group,
                                                 const Rng& root) {
  if (config.hash == HashKind::kTopoAware) {
    expects(group.has_positions(), "topo-aware hash requires positions");
    std::vector<Position> sample;
    sample.reserve(group.size());
    for (const MemberId m : group.members()) sample.push_back(group.position(m));
    return std::make_unique<hashing::TopoAwareHash>(
        [&group](MemberId m) { return group.position(m); }, sample);
  }
  Rng salt_rng = root.derive(streams::kHashSalt);
  return std::make_unique<hashing::FairHash>(salt_rng.raw());
}

std::uint32_t hierarchy_fanout(const ExperimentConfig& config) {
  return config.protocol == ProtocolKind::kHierGossip ? config.gossip.k
                                                      : config.hierarchy_k;
}

std::unique_ptr<agg::AuditRegistry> make_audit(
    const ExperimentConfig& config, const membership::Group& group,
    const hierarchy::GridBoxHierarchy& hier) {
  if (!config.audit) return nullptr;
  auto audit = std::make_unique<agg::AuditRegistry>(config.group_size);
  // Bit order sorted by (box, id): a box's members get contiguous bits, so
  // the audit sets the protocols actually build (per-box, then per-subtree)
  // occupy narrow word windows instead of scattering across the universe.
  std::vector<MemberId> by_box = group.members();
  std::stable_sort(by_box.begin(), by_box.end(),
                   [&hier](MemberId a, MemberId b) {
                     return hier.phase_group(a, 1) < hier.phase_group(b, 1);
                   });
  std::vector<std::uint32_t> member_to_bit(config.group_size);
  for (std::uint32_t bit = 0; bit < by_box.size(); ++bit) {
    member_to_bit[by_box[bit].value()] = bit;
  }
  audit->set_bit_order(std::move(member_to_bit));
  return audit;
}

SimTime protocol_horizon(const ExperimentConfig& config,
                         std::size_t num_phases) {
  if (config.protocol == ProtocolKind::kHierGossip) {
    const std::uint64_t total_rounds =
        num_phases * config.gossip.rounds_per_phase(config.group_size) + 1;
    return config.gossip.start_skew_max +
           SimTime::micros(static_cast<SimTime::underlying>(total_rounds) *
                           config.gossip.round_duration.ticks());
  }
  return SimTime::micros(200 * config.round_duration().ticks());
}

std::unique_ptr<protocols::ProtocolNode> make_node(
    const ExperimentConfig& config, MemberId id, double vote,
    membership::View view, protocols::NodeEnv env, Rng rng) {
  switch (config.protocol) {
    case ProtocolKind::kHierGossip:
      return std::make_unique<protocols::gossip::HierGossipNode>(
          id, vote, std::move(view), env, rng, config.gossip);
    case ProtocolKind::kFullyDistributed:
      return std::make_unique<protocols::baseline::FullyDistributedNode>(
          id, vote, std::move(view), env, rng, config.fully_distributed);
    case ProtocolKind::kCentralized:
      return std::make_unique<protocols::baseline::CentralizedNode>(
          id, vote, std::move(view), env, rng, config.centralized);
    case ProtocolKind::kLeaderElection:
      return std::make_unique<protocols::baseline::LeaderElectionNode>(
          id, vote, std::move(view), env, rng, config.committee);
    case ProtocolKind::kCommittee:
      return std::make_unique<protocols::baseline::CommitteeNode>(
          id, vote, std::move(view), env, rng, config.committee);
  }
  ensures(false, "unhandled protocol kind");
  return nullptr;
}

}  // namespace gridbox::runner
