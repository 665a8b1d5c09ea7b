// Quickstart: aggregate an average over a 64-member group with Hierarchical
// Gossiping on a lossy simulated network, in ~40 lines of library use.
//
//   $ ./build/examples/quickstart
//
// Walks through the full public API surface: build a group and votes, pick
// the well-known hash H, derive the Grid Box Hierarchy, wire the simulated
// network, run one protocol instance per member, and read out estimates.
#include <cstdio>

#include "src/agg/vote.h"
#include "src/hashing/fair_hash.h"
#include "src/hierarchy/hierarchy.h"
#include "src/membership/group.h"
#include "src/net/network.h"
#include "src/protocols/gossip/hier_gossip.h"
#include "src/sim/simulator.h"

int main() {
  using namespace gridbox;

  constexpr std::size_t kGroupSize = 64;
  const Rng root(2001);

  // 1. The group and its votes (temperatures around 25 degrees).
  membership::Group group(kGroupSize);
  Rng vote_rng = root.derive(1);
  const agg::VoteTable votes =
      agg::uniform_votes(kGroupSize, vote_rng, 20.0, 30.0);

  // 2. The well-known hash H and the Grid Box Hierarchy (K = 4).
  hashing::FairHash hash(/*salt=*/7);
  hierarchy::GridBoxHierarchy hier(kGroupSize, /*members_per_box=*/4, hash);
  std::printf("hierarchy: %llu grid boxes, %zu phases\n",
              static_cast<unsigned long long>(hier.num_boxes()),
              hier.num_phases());

  // 3. A lossy asynchronous network: 20%% unicast loss, 0.2-2ms latency.
  sim::Simulator simulator;
  net::SimNetwork network(
      simulator, net::FaultModel::iid(0.20),
      std::make_unique<net::UniformLatency>(SimTime::micros(200),
                                            SimTime::micros(2000)),
      root.derive(2));
  network.set_liveness([&group](MemberId m) { return group.is_alive(m); });

  // 4. One protocol node per member.
  protocols::NodeEnv env;
  env.scheduler = &simulator;
  env.network = &network;
  env.hierarchy = &hier;
  env.is_alive = [&group](MemberId m) { return group.is_alive(m); };
  env.kind = agg::AggregateKind::kAverage;

  protocols::gossip::GossipConfig config;
  config.k = 4;
  config.fanout_m = 2;
  config.round_multiplier_c = 2.0;

  std::vector<std::unique_ptr<protocols::gossip::HierGossipNode>> nodes;
  const membership::View view = group.full_view();
  for (const MemberId m : group.members()) {
    nodes.push_back(std::make_unique<protocols::gossip::HierGossipNode>(
        m, votes.of(m), view, env, root.derive(100 + m.value()), config));
    network.attach(m, *nodes.back());
  }
  for (auto& node : nodes) node->start(SimTime::zero());

  // 5. Run the simulation to completion and read the estimates.
  simulator.run();

  const double truth =
      votes.exact_partial_all().value(agg::AggregateKind::kAverage);
  std::printf("true average: %.4f\n", truth);
  double worst_error = 0.0;
  std::size_t worst_count = kGroupSize;
  for (const auto& node : nodes) {
    const auto& out = node->outcome();
    worst_error = std::max(
        worst_error,
        std::abs(out.estimate.value(agg::AggregateKind::kAverage) - truth));
    worst_count = std::min<std::size_t>(worst_count, out.estimate.count());
  }
  std::printf("every member finished; sample estimates:\n");
  for (const std::size_t i : {0u, 21u, 42u, 63u}) {
    const auto& out = nodes[i]->outcome();
    std::printf("  %s -> %.4f (covering %u/%zu votes)\n",
                to_string(nodes[i]->self()).c_str(),
                out.estimate.value(agg::AggregateKind::kAverage),
                out.estimate.count(), kGroupSize);
  }
  std::printf("worst member: coverage %zu/%zu, estimate error %.4f\n",
              worst_count, kGroupSize, worst_error);
  std::printf("network: %llu messages sent, %.1f%% delivered\n",
              static_cast<unsigned long long>(network.stats().messages_sent),
              100.0 * network.stats().delivery_rate());
  return 0;
}
