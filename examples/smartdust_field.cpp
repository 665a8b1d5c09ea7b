// Smart-dust scenario (paper §1): "a few hundred thousand smart dust
// computers might be randomly dropped on an inhospitable terrain" — scaled
// here to 2000 motes so the example runs in seconds. The terrain is harsh:
// heavy message loss, a soft partition down the middle (a ridge), and motes
// that die permanently every round (battery, weather, fauna).
//
// The group computes MIN battery voltage — the fleet-health question "how
// close is the weakest mote to dying?" — and we compare every surviving
// mote's estimate against ground truth.
//
//   $ ./build/examples/smartdust_field
#include <cstdio>
#include <memory>
#include <vector>

#include "src/agg/vote.h"
#include "src/hashing/fair_hash.h"
#include "src/hierarchy/hierarchy.h"
#include "src/membership/crash_model.h"
#include "src/membership/group.h"
#include "src/net/network.h"
#include "src/protocols/gossip/hier_gossip.h"
#include "src/sim/simulator.h"

int main() {
  using namespace gridbox;

  constexpr std::size_t kMotes = 2000;
  const Rng root(777);

  membership::Group field(kMotes);
  Rng vote_rng = root.derive(1);
  // Battery voltages: nominal 3.0V, some depleted down toward 2.0V.
  const agg::VoteTable batteries =
      agg::uniform_votes(kMotes, vote_rng, 2.0, 3.2);

  hashing::FairHash hash(/*salt=*/13);
  hierarchy::GridBoxHierarchy hier(kMotes, /*members_per_box=*/4, hash);

  // The ridge: motes 0..999 vs 1000..1999; cross-ridge traffic loses 60% of
  // messages, same-side traffic 30%.
  sim::Simulator simulator;
  net::SimNetwork network(
      simulator, net::FaultModel::split_at(kMotes / 2, 0.30, 0.60),
      std::make_unique<net::UniformLatency>(SimTime::micros(500),
                                            SimTime::micros(5000)),
      root.derive(2));
  network.set_liveness([&field](MemberId m) { return field.is_alive(m); });

  protocols::NodeEnv env;
  env.scheduler = &simulator;
  env.network = &network;
  env.hierarchy = &hier;
  env.is_alive = [&field](MemberId m) { return field.is_alive(m); };
  env.kind = agg::AggregateKind::kMin;

  protocols::gossip::GossipConfig config;
  config.k = 4;
  config.fanout_m = 2;
  config.round_multiplier_c = 2.0;

  std::vector<std::unique_ptr<protocols::gossip::HierGossipNode>> motes;
  const membership::View view = field.full_view();
  for (const MemberId m : field.members()) {
    motes.push_back(std::make_unique<protocols::gossip::HierGossipNode>(
        m, batteries.of(m), view, env, root.derive(100 + m.value()), config));
    network.attach(m, *motes.back());
  }
  for (auto& mote : motes) mote->start(SimTime::zero());

  // Motes die permanently at 0.1% per gossip round.
  const membership::PerRoundCrash attrition(0.001);
  auto crash_rng = std::make_shared<Rng>(root.derive(3));
  auto round = std::make_shared<std::uint64_t>(0);
  simulator.schedule_periodic(
      config.round_duration, config.round_duration,
      [&field, &motes, &attrition, crash_rng, round]() {
        (void)field.apply_round_crashes(attrition, (*round)++, *crash_rng);
        for (const auto& mote : motes) {
          if (!mote->finished() && field.is_alive(mote->self())) return true;
        }
        return false;
      });

  simulator.run();

  const double true_min =
      batteries.exact_partial_all().value(agg::AggregateKind::kMin);
  std::printf("field of %zu motes; %zu survived the run\n", kMotes,
              field.alive_count());
  std::printf("true minimum battery: %.4f V\n", true_min);

  std::size_t finished = 0;
  std::size_t exact = 0;
  double coverage = 0.0;
  for (const auto& mote : motes) {
    if (!field.is_alive(mote->self()) || !mote->finished()) continue;
    ++finished;
    const double est =
        mote->outcome().estimate.value(agg::AggregateKind::kMin);
    if (est == true_min) ++exact;
    coverage += static_cast<double>(mote->outcome().estimate.count()) /
                static_cast<double>(kMotes);
  }
  std::printf("%zu surviving motes finished; %zu (%.1f%%) know the exact "
              "minimum despite ridge + loss + attrition\n",
              finished, exact,
              finished > 0 ? 100.0 * static_cast<double>(exact) /
                                 static_cast<double>(finished)
                           : 0.0);
  std::printf("mean vote coverage at surviving motes: %.2f%%\n",
              finished > 0 ? 100.0 * coverage / static_cast<double>(finished)
                           : 0.0);
  std::printf("network: %llu messages, %.1f%% delivered\n",
              static_cast<unsigned long long>(network.stats().messages_sent),
              100.0 * network.stats().delivery_rate());
  return 0;
}
