// Internet process-group scenario (paper §1, §2): a few hundred processes
// spread over a wide-area network run *periodic* one-shot aggregations —
// here, of their load average — and each process throttles itself whenever
// the group's average load is high. Demonstrates:
//   - repeated protocol instances over the same long-lived group (the
//     paper's "this can be extended to one which periodically calculates
//     the global aggregate"),
//   - long-tailed WAN latencies (ExponentialLatency),
//   - membership churn between instances (crashes persist across rounds),
//   - multiple aggregate kinds read from the same run (avg + max from one
//     Partial).
//
//   $ ./build/examples/internet_monitor
#include <cstdio>
#include <memory>
#include <vector>

#include "src/agg/vote.h"
#include "src/hashing/fair_hash.h"
#include "src/hierarchy/hierarchy.h"
#include "src/membership/group.h"
#include "src/net/network.h"
#include "src/protocols/gossip/hier_gossip.h"
#include "src/sim/simulator.h"

namespace {

using namespace gridbox;

struct EpochResult {
  double true_avg = 0.0;
  double mean_est_avg = 0.0;
  double mean_coverage = 0.0;
  std::size_t throttling = 0;
  std::size_t alive = 0;
};

EpochResult run_epoch(membership::Group& processes,
                      const agg::VoteTable& loads,
                      const hierarchy::GridBoxHierarchy& hier, Rng epoch_rng,
                      double throttle_threshold) {
  sim::Simulator simulator;
  net::SimNetwork network(
      simulator, net::FaultModel::iid(0.15),
      std::make_unique<net::ExponentialLatency>(SimTime::micros(500),
                                                SimTime::micros(1500),
                                                SimTime::micros(8000)),
      epoch_rng.derive(1));
  network.set_liveness(
      [&processes](MemberId m) { return processes.is_alive(m); });

  protocols::NodeEnv env;
  env.scheduler = &simulator;
  env.network = &network;
  env.hierarchy = &hier;
  env.is_alive = [&processes](MemberId m) { return processes.is_alive(m); };
  env.kind = agg::AggregateKind::kAverage;

  protocols::gossip::GossipConfig config;
  config.k = 4;
  config.fanout_m = 2;
  config.round_multiplier_c = 2.0;
  // Multicast-initiated start: instances begin within one round of each
  // other, not perfectly simultaneously.
  config.start_skew_max = config.round_duration;

  std::vector<std::unique_ptr<protocols::gossip::HierGossipNode>> nodes;
  const membership::View view = processes.full_view();
  for (const MemberId m : processes.members()) {
    if (!processes.is_alive(m)) continue;  // dead processes don't restart
    nodes.push_back(std::make_unique<protocols::gossip::HierGossipNode>(
        m, loads.of(m), view, env, epoch_rng.derive(100 + m.value()),
        config));
    network.attach(m, *nodes.back());
  }
  for (auto& node : nodes) node->start(SimTime::zero());
  simulator.run();

  EpochResult result;
  result.alive = processes.alive_count();
  result.true_avg = [&] {
    agg::Partial alive_votes;
    for (const MemberId m : processes.members()) {
      if (processes.is_alive(m)) {
        alive_votes.merge(agg::Partial::from_vote(loads.of(m)));
      }
    }
    return alive_votes.value(agg::AggregateKind::kAverage);
  }();
  std::size_t finished = 0;
  for (const auto& node : nodes) {
    if (!node->finished()) continue;
    ++finished;
    const double est =
        node->outcome().estimate.value(agg::AggregateKind::kAverage);
    result.mean_est_avg += est;
    result.mean_coverage += static_cast<double>(
        node->outcome().estimate.count());
    if (est > throttle_threshold) ++result.throttling;
  }
  if (finished > 0) {
    result.mean_est_avg /= static_cast<double>(finished);
    result.mean_coverage /=
        static_cast<double>(finished) * static_cast<double>(result.alive);
  }
  return result;
}

}  // namespace

int main() {
  constexpr std::size_t kProcesses = 300;
  constexpr double kThrottleAt = 0.75;
  const Rng root(31337);

  membership::Group processes(kProcesses);
  hashing::FairHash hash(/*salt=*/3);
  const hierarchy::GridBoxHierarchy hier(kProcesses, 4, hash);

  std::printf("monitoring %zu processes; throttle when avg load > %.2f\n\n",
              kProcesses, kThrottleAt);
  std::printf("%-6s %-6s %-9s %-9s %-9s %-10s\n", "epoch", "alive",
              "true avg", "est avg", "coverage", "throttling");

  Rng churn_rng = root.derive(0xC);
  for (int epoch = 0; epoch < 6; ++epoch) {
    // Fresh load measurements each epoch: load creeps up over time.
    Rng load_rng = root.derive(0x10 + static_cast<std::uint64_t>(epoch));
    const agg::VoteTable loads = agg::uniform_votes(
        kProcesses, load_rng, 0.1 + 0.12 * epoch, 0.7 + 0.12 * epoch);

    const EpochResult r =
        run_epoch(processes, loads, hier,
                  root.derive(0x100 + static_cast<std::uint64_t>(epoch)),
                  kThrottleAt);
    std::printf("%-6d %-6zu %-9.3f %-9.3f %-8.1f%% %-10zu\n", epoch, r.alive,
                r.true_avg, r.mean_est_avg, 100.0 * r.mean_coverage,
                r.throttling);

    // Churn between epochs: ~2% of live processes fail for good.
    for (const MemberId m : processes.members()) {
      if (processes.is_alive(m) && churn_rng.bernoulli(0.02)) {
        processes.crash(m);
      }
    }
  }
  std::printf(
      "\nnote how estimated averages track the rising true load, and the "
      "throttling count jumps once the group crosses the threshold — no "
      "coordinator involved.\n");
  return 0;
}
