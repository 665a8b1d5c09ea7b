// setup_s: the world build of one aggregate through the public
// runner/world_setup.h functions, plus binding the member sockets on UDP,
// sampled across the run and reported as medians so that it repeats from
// run to run.

#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/hierarchy/hierarchy.h"
#include "src/membership/group.h"
#include "src/net/network.h"
#include "src/net/reactor.h"
#include "src/net/udp_transport.h"
#include "src/protocols/arena.h"
#include "src/runner/udp_runtime.h"
#include "src/runner/world_setup.h"
#include "src/sim/simulator.h"

namespace perfbench {

namespace {

using namespace gridbox;

struct SetupSample {
  double votes_s = 0.0;
  double hierarchy_s = 0.0;
  double audit_s = 0.0;
  double arena_s = 0.0;
  double nodes_s = 0.0;
  double bind_s = 0.0;
};

/// One world build, in run_experiment's order. The simulator and network
/// the nodes are wired to are built untimed: they are the substrate, not
/// the world.
void build_world(const runner::ExperimentConfig& config, SetupSample& out) {
  sim::Simulator simulator;
  net::SimNetwork network(simulator, runner::make_faults(config),
                          std::make_unique<net::UniformLatency>(
                              config.latency_lo, config.latency_hi),
                          Rng(config.seed).derive(runner::streams::kNet));

  auto t = Clock::now();
  const auto lap = [&t]() {
    const double s = seconds_since(t);
    t = Clock::now();
    return s;
  };
  const Rng root(config.seed);
  membership::Group group(config.group_size);
  Rng vote_rng = root.derive(runner::streams::kVote);
  const agg::VoteTable votes = runner::make_votes(config, group, vote_rng);
  out.votes_s = lap();

  const std::unique_ptr<hashing::HashFunction> hash =
      runner::make_hash(config, group, root);
  hierarchy::GridBoxHierarchy hier(config.group_size,
                                   runner::hierarchy_fanout(config), *hash);
  out.hierarchy_s = lap();

  const std::unique_ptr<agg::AuditRegistry> audit =
      runner::make_audit(config, group, hier);
  out.audit_s = lap();

  protocols::StateArena arena(group.shared_members());
  arena.build_phase_tables(hier);
  out.arena_s = lap();

  protocols::NodeEnv env;
  env.scheduler = &simulator;
  env.network = &network;
  env.hierarchy = &hier;
  env.audit = audit.get();
  env.arena = &arena;
  env.is_alive = [&group](MemberId m) { return group.is_alive(m); };
  env.kind = config.aggregate;
  Rng view_rng = root.derive(runner::streams::kView);
  std::vector<std::unique_ptr<protocols::ProtocolNode>> nodes;
  nodes.reserve(config.group_size);
  for (const MemberId m : group.members()) {
    auto node = runner::make_node(config, m, votes.of(m),
                                  runner::make_view(config, group, m, view_rng),
                                  env, root.derive(runner::streams::kNodeBase +
                                                   m.value()));
    network.attach(m, *node);
    nodes.push_back(std::move(node));
  }
  out.nodes_s = lap();
}

struct NullEndpoint final : net::Endpoint {
  void on_message(const net::Message& /*message*/) override {}
};

/// Binds one socket per member on `shards` reactors, as the UDP runtimes
/// do before their loops start; the sockets close untimed.
double bind_sockets(std::size_t members, std::size_t shards) {
  NullEndpoint sink;
  std::vector<std::unique_ptr<net::Reactor>> reactors;
  std::vector<std::unique_ptr<net::UdpTransport>> transports;
  const auto start = Clock::now();
  for (std::size_t s = 0; s < shards; ++s) {
    reactors.push_back(std::make_unique<net::Reactor>(net::Reactor::Options{}));
    net::UdpTransport::Options topt;
    topt.port_base = kSetupPortBase;
    transports.push_back(
        std::make_unique<net::UdpTransport>(*reactors.back(), topt));
  }
  for (std::size_t m = 0; m < members; ++m) {
    transports[m % shards]->attach(
        MemberId(static_cast<MemberId::underlying>(m)), sink);
  }
  const double elapsed = seconds_since(start);
  transports.clear();  // closes the sockets before their reactors go
  return elapsed;
}

}  // namespace

SetupProbe::SetupProbe(const runner::ExperimentConfig& config,
                       std::uint64_t seed, bool bind_sockets)
    : config_(config), seed_(seed), bind_sockets_(bind_sockets) {
  if (bind_sockets_) runner::require_fd_capacity(config_.group_size + 64);
}

void SetupProbe::sample(std::size_t repetitions) {
  const CpuTimes start = cpu_now();
  for (std::size_t rep = 0; rep < repetitions; ++rep) {
    runner::ExperimentConfig config = config_;
    config.seed = input_seed(seed_, total_.size() % kInputsPerRun);
    SetupSample sample;
    build_world(config, sample);
    if (bind_sockets_) {
      sample.bind_s = bind_sockets(config.group_size, udp_shards());
    }
    votes_.push_back(sample.votes_s);
    hierarchy_.push_back(sample.hierarchy_s);
    audit_.push_back(sample.audit_s);
    arena_.push_back(sample.arena_s);
    nodes_.push_back(sample.nodes_s);
    bind_.push_back(sample.bind_s);
    total_.push_back(sample.votes_s + sample.hierarchy_s + sample.audit_s +
                     sample.arena_s + sample.nodes_s + sample.bind_s);
  }
  const CpuTimes spent = cpu_now() - start;
  cpu_.user_s += spent.user_s;
  cpu_.sys_s += spent.sys_s;
}

void SetupProbe::report(Report& report, bool trace) const {
  report.notes.push_back("setup repetitions: " + std::to_string(total_.size()) +
                         ", spread over the run");
  if (!trace) {
    report.add("setup_s", median(total_), "s");
    return;
  }
  report.add("runner.setup.votes_s", median(votes_), "s");
  report.add("runner.setup.hierarchy_s", median(hierarchy_), "s");
  report.add("runner.setup.audit_s", median(audit_), "s");
  report.add("runner.setup.arena_s", median(arena_), "s");
  report.add("runner.setup.nodes_s", median(nodes_), "s");
  if (bind_sockets_) report.add("net.udp.bind_s", median(bind_), "s");
}

}  // namespace perfbench
