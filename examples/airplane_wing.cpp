// Airplane wing scenario (paper §1): "a few thousand sensors might be
// installed on the wing of an airplane ... the network of airplane wing
// sensors might calculate the average temperature of all sensors on the
// wing, triggering a coolant release at certain sensors if this average
// temperature is above some threshold."
//
// This example places 1024 sensors on a jittered grid (fixed physical
// positions — so the topologically aware hash applies), samples a smooth
// temperature field with a hot spot, runs Hierarchical Gossiping for the
// average, and triggers coolant release at the sensors whose local reading
// exceeds the group consensus by a margin.
//
//   $ ./build/examples/airplane_wing
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "src/agg/vote.h"
#include "src/hashing/topo_hash.h"
#include "src/hierarchy/hierarchy.h"
#include "src/membership/group.h"
#include "src/net/network.h"
#include "src/protocols/gossip/hier_gossip.h"
#include "src/sim/simulator.h"

int main() {
  using namespace gridbox;

  constexpr std::size_t kSensors = 1024;
  constexpr double kCoolantMargin = 4.0;  // degrees above consensus average
  const Rng root(1947);

  // Sensors glued to the wing at (roughly) regular positions.
  membership::Group wing(kSensors);
  Rng pos_rng = root.derive(1);
  wing.grid_positions(pos_rng, /*jitter=*/0.2);
  const auto position_of = [&wing](MemberId m) { return wing.position(m); };

  // A temperature field with a hot spot (e.g. near an engine), plus sensor
  // noise. Nearby sensors read nearby temperatures.
  Rng field_rng = root.derive(2);
  const agg::VoteTable readings = agg::field_votes(
      kSensors, position_of, field_rng, /*base=*/40.0, /*amplitude=*/25.0,
      /*noise_sigma=*/0.8);

  // Topologically aware H, calibrated on the deployment: grid boxes are
  // spatially tight patches of the wing, so early gossip phases stay on
  // short (cheap, reliable) links.
  std::vector<Position> placement;
  placement.reserve(kSensors);
  for (const MemberId m : wing.members()) placement.push_back(wing.position(m));
  hashing::TopoAwareHash hash(position_of, placement);
  hierarchy::GridBoxHierarchy hier(kSensors, /*members_per_box=*/4, hash);

  // On-wing network: short-range links, mild loss, distance-driven latency.
  sim::Simulator simulator;
  net::SimNetwork network(
      simulator, net::FaultModel::iid(0.10),
      std::make_unique<net::DistanceLatency>(position_of, SimTime::micros(50),
                                             SimTime::micros(3000)),
      root.derive(3));
  network.set_liveness([&wing](MemberId m) { return wing.is_alive(m); });
  network.set_distance([&wing](MemberId a, MemberId b) {
    return std::sqrt(squared_distance(wing.position(a), wing.position(b)));
  });

  protocols::NodeEnv env;
  env.scheduler = &simulator;
  env.network = &network;
  env.hierarchy = &hier;
  env.is_alive = [&wing](MemberId m) { return wing.is_alive(m); };
  env.kind = agg::AggregateKind::kAverage;

  protocols::gossip::GossipConfig config;
  config.k = 4;
  config.fanout_m = 2;
  config.round_multiplier_c = 2.0;

  std::vector<std::unique_ptr<protocols::gossip::HierGossipNode>> sensors;
  const membership::View view = wing.full_view();
  for (const MemberId m : wing.members()) {
    sensors.push_back(std::make_unique<protocols::gossip::HierGossipNode>(
        m, readings.of(m), view, env, root.derive(100 + m.value()), config));
    network.attach(m, *sensors.back());
  }
  for (auto& sensor : sensors) sensor->start(SimTime::zero());
  simulator.run();

  const double truth =
      readings.exact_partial_all().value(agg::AggregateKind::kAverage);
  std::printf("wing of %zu sensors, true average temperature %.2f C\n",
              kSensors, truth);

  // Each sensor acts on ITS OWN estimate — that is the point of computing
  // the aggregate at every member (no coordinator to ask).
  std::size_t releases = 0;
  std::size_t finished = 0;
  double worst_estimate_error = 0.0;
  for (const auto& sensor : sensors) {
    if (!sensor->finished()) continue;
    ++finished;
    const double consensus =
        sensor->outcome().estimate.value(agg::AggregateKind::kAverage);
    worst_estimate_error =
        std::max(worst_estimate_error, std::abs(consensus - truth));
    if (readings.of(sensor->self()) > consensus + kCoolantMargin) {
      ++releases;
    }
  }
  std::printf("%zu/%zu sensors computed an estimate; worst error %.3f C\n",
              finished, kSensors, worst_estimate_error);
  std::printf("%zu sensors released coolant (local reading > consensus + %.1f C)\n",
              releases, kCoolantMargin);
  std::printf("mean link distance per message: %.4f wing-lengths "
              "(topo-aware hash keeps early phases local)\n",
              network.stats().link_distance_sum /
                  static_cast<double>(network.stats().messages_sent));
  return 0;
}
