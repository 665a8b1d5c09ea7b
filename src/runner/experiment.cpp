#include "src/runner/experiment.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "src/agg/vote.h"
#include "src/common/ensure.h"
#include "src/runner/world_setup.h"
#include "src/hierarchy/hierarchy.h"
#include "src/membership/group.h"
#include "src/net/chaos.h"
#include "src/net/network.h"
#include "src/obs/curves.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/lineage.h"
#include "src/obs/run_observer.h"
#include "src/obs/trace_sink.h"
#include "src/protocols/gossip/hier_gossip.h"
#include "src/protocols/invariant_checker.h"
#include "src/sim/simulator.h"
#include "src/analysis/completeness.h"
#include "src/analysis/epidemic.h"

namespace gridbox::runner {

namespace {

/// One occupied phase group: its members, and (phase >= 2) how many of its
/// K child slots hold at least one member.
struct PhaseGroup {
  std::uint64_t members = 0;
  std::uint64_t children = 0;
};

/// The occupied phase groups at `phase`. One sort + run-length pass over
/// (group, child slot) pairs instead of a hash map: this runs inside the
/// instrumented window when curves are armed, so it stays cheap.
[[nodiscard]] std::vector<PhaseGroup> phase_groups_at(
    const hierarchy::GridBoxHierarchy& hier, const membership::Group& group,
    std::size_t phase) {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keys;
  keys.reserve(group.members().size());
  for (const MemberId m : group.members()) {
    keys.emplace_back(hier.phase_group(m, phase),
                      phase >= 2 ? hier.child_slot(m, phase) : 0);
  }
  std::sort(keys.begin(), keys.end());
  std::vector<PhaseGroup> groups;
  for (std::size_t i = 0; i < keys.size();) {
    PhaseGroup g;
    std::size_t j = i;
    for (; j < keys.size() && keys[j].first == keys[i].first; ++j) {
      if (j == i || keys[j].second != keys[j - 1].second) ++g.children;
    }
    g.members = j - i;
    groups.push_back(g);
    i = j;
  }
  return groups;
}

/// Protocol-aware curve setup: the denominators are the maximum number of
/// knowledge-gain events each phase can produce (the "everyone learns
/// everything" ceiling), so cumulative gains / denominator is the empirical
/// infected fraction. Hier-gossip additionally gets the paper's analytic
/// model so one JSON carries both sides of the Figure 4 overlay.
void configure_curves(obs::CurveRecorder& curves,
                      const ExperimentConfig& config,
                      const hierarchy::GridBoxHierarchy& hier,
                      const membership::Group& group) {
  const std::uint64_t n = config.group_size;
  const std::uint32_t k = hier.fanout();
  const std::size_t phases = hier.num_phases();
  curves.set_meta(config.group_size, k);

  std::vector<std::uint64_t> denoms;
  std::uint64_t result_denom = 0;
  switch (config.protocol) {
    case ProtocolKind::kHierGossip: {
      // Phase 1: each of the |g| members of a box can learn all |g| votes.
      // Phase i >= 2: each member can hold one aggregate per child slot
      // whose subtree is not empty.
      for (std::size_t p = 1; p <= phases; ++p) {
        std::uint64_t d = 0;
        for (const PhaseGroup& g : phase_groups_at(hier, group, p)) {
          d += g.members * (p == 1 ? g.members : g.children);
        }
        denoms.push_back(d);
      }
      break;
    }
    case ProtocolKind::kFullyDistributed:
      denoms.push_back(n * n);  // everyone can learn every vote
      break;
    case ProtocolKind::kCentralized:
      // The leader learns all N votes; everyone else holds only its own.
      denoms.push_back(2 * n - 1);
      result_denom = n;
      break;
    case ProtocolKind::kLeaderElection:
    case ProtocolKind::kCommittee: {
      const std::uint64_t committee_size =
          config.protocol == ProtocolKind::kLeaderElection
              ? 1
              : config.committee.committee_size;
      // Level 1: N own-vote seeds + each box committee member collecting the
      // |b|-1 other votes of its box.
      std::uint64_t d1 = n;
      std::uint64_t prev_committee = 0;
      for (const PhaseGroup& g : phase_groups_at(hier, group, 1)) {
        const std::uint64_t t =
            std::min<std::uint64_t>(committee_size, g.members);
        d1 += t * (g.members - 1);
        prev_committee += t;
      }
      denoms.push_back(d1);
      // Level p >= 2: level p-1 committee members export their partial (one
      // kLocal each) and level-p committee members fill one slot per
      // non-empty child subtree, except their own child's slot: a level-p
      // member is also a level p-1 exporter, and that export already fills
      // it locally with no second event.
      for (std::size_t p = 2; p <= phases; ++p) {
        std::uint64_t level_committee = 0;
        std::uint64_t slots = 0;
        for (const PhaseGroup& g : phase_groups_at(hier, group, p)) {
          const std::uint64_t t =
              std::min<std::uint64_t>(committee_size, g.members);
          level_committee += t;
          slots += t * g.children;
        }
        denoms.push_back(prev_committee + slots - level_committee);
        prev_committee = level_committee;
      }
      result_denom = n;
      break;
    }
  }
  curves.set_denominators(std::move(denoms), result_denom);

  if (config.protocol == ProtocolKind::kHierGossip) {
    obs::CurveRecorder::Analytic a;
    a.enabled = true;
    a.b = analysis::effective_b(
        config.gossip.fanout_m, std::max(0.0, config.ucast_loss),
        static_cast<double>(config.gossip.rounds_per_phase(config.group_size)),
        config.gossip.k, config.group_size);
    a.rounds_per_phase = config.gossip.rounds_per_phase(config.group_size);
    // Phase i spreads v_i values through groups of (on average) m_i members:
    // v_1 = m_1 = mean occupied-box population, v_i = K child aggregates for
    // i >= 2 while m_i grows by K per level. b is per value in flight.
    for (std::size_t p = 1; p <= phases; ++p) {
      const auto sizes = phase_groups_at(hier, group, p);
      const double m =
          sizes.empty() ? 1.0
                        : static_cast<double>(n) /
                              static_cast<double>(sizes.size());
      const double values_in_flight = p == 1 ? m : static_cast<double>(k);
      obs::CurveRecorder::PhaseModel pm;
      pm.m = m;
      pm.b = values_in_flight > 0.0 ? a.b / values_in_flight : a.b;
      a.phases.push_back(pm);
    }
    a.c1 = analysis::first_phase_completeness(config.group_size,
                                              config.gossip.k, a.b);
    a.phase_bound = analysis::phase_completeness_bound(config.group_size, a.b);
    a.protocol_bound = analysis::protocol_completeness_bound(
        config.group_size, config.gossip.k, a.b);
    a.theorem1 = analysis::theorem1_bound(config.group_size);
    curves.set_analytic(std::move(a));
  }
}

/// One run on the calling thread. Its scopes charge whatever LayerClock is
/// installed here; run_experiment installs one when profiling is on.
RunResult simulate(const ExperimentConfig& config) {
  const Rng root(config.seed);
  World world(config, root);
  membership::Group& group = world.group;
  const hierarchy::GridBoxHierarchy& hier = world.hier;

  // Chaos: scripted adversity layered over (or replacing) the static fault
  // pipeline. The schedule draws from its own derived streams, so adding a
  // chaos spec never perturbs vote/view/node randomness.
  const net::ChaosSpec chaos = one_shot_chaos(config);
  sim::Simulator simulator;
  const std::unique_ptr<net::SimNetwork> network =
      make_sim_network(config, simulator, group, chaos);

  // Observability: one observer per run when anything wants events. It
  // lives on this stack frame, so parallel sweep runs never share state;
  // the metrics snapshot is built from it once, after the run, and merges
  // deterministically in slot order afterwards.
  std::unique_ptr<obs::RunObserver> observer;
  if (config.collect_metrics || config.trace_sink != nullptr ||
      config.lineage != nullptr || config.curves != nullptr ||
      config.flight != nullptr) {
    obs::RunObserver::Options oopt;
    oopt.clock = &simulator;
    oopt.group_size = config.group_size;
    oopt.next = config.gossip.trace;
    oopt.sink = config.trace_sink;
    oopt.lineage = config.lineage;
    oopt.curves = config.curves;
    oopt.flight = config.flight;
    observer = std::make_unique<obs::RunObserver>(oopt);
    network->set_observer(observer.get());
    group.set_crash_listener(
        [&observer](MemberId m) { observer->on_crash(m); });
  }
  if (config.lineage != nullptr) config.lineage->capture_hierarchy(hier);
  if (config.curves != nullptr) {
    configure_curves(*config.curves, config, hier, group);
  }

  net::schedule_chaos_crashes(chaos, simulator,
                              [&group](MemberId m) { group.crash(m); });
  if (group.has_positions()) {
    network->set_distance([&group](MemberId a, MemberId b) {
      return std::sqrt(squared_distance(group.position(a), group.position(b)));
    });
  }

  // Shared struct-of-arrays node state (§DESIGN 11): one arena of flat
  // per-member lanes plus the hierarchy's phase-group segment tables,
  // computed once per run instead of once per node.
  protocols::StateArena arena(group.shared_members());
  arena.build_phase_tables(hier);
  simulator.reserve_events(4 * config.group_size);
  // The runaway-reschedule guard must scale with N: a healthy audited run
  // executes ~450 events per member at N = 10^5 and grows ~log N past
  // that, so the stock 500M lifetime cap is real headroom at small N but
  // less than one legitimate run at N = 10^6. 1000 events/member keeps a
  // comfortable 2x margin while still catching unbounded loops.
  simulator.set_event_limit(std::max<std::uint64_t>(
      500'000'000, 1000 * static_cast<std::uint64_t>(config.group_size)));

  // Trace chain: node -> invariant checker -> run observer -> user trace.
  // The observer (when present) already forwards to config.gossip.trace.
  // The checker's deadline is Theorem 1's horizon; violations throw
  // InvariantError out of simulator.run() at the offending event.
  protocols::gossip::GossipTrace* trace_tail =
      observer != nullptr
          ? static_cast<protocols::gossip::GossipTrace*>(observer.get())
          : config.gossip.trace;
  const std::unique_ptr<protocols::InvariantChecker> checker = make_checker(
      config, hier, world.audit.get(), &simulator,
      protocol_horizon(config, hier.num_phases()), /*fail_fast=*/true,
      /*concurrent=*/false, trace_tail);
  const std::vector<std::unique_ptr<protocols::ProtocolNode>> nodes =
      make_nodes(config, world, root, arena,
                 checker != nullptr ? checker.get() : trace_tail,
                 [&simulator, &network](MemberId, protocols::NodeEnv& env) {
                   env.scheduler = &simulator;
                   env.network = network.get();
                 });
  for (const auto& node : nodes) network->attach(node->self(), *node);
  for (const auto& node : nodes) node->start(SimTime::zero());

  // Crash clock (paper §7: crash without recovery). Stops once no live
  // member is still running the protocol, letting the simulation drain.
  CrashClock crash_clock(config, group, [&nodes, &group]() {
    return !settled(nodes, group);
  });
  crash_clock.arm(simulator);

  // Live telemetry on the simulator substrate: one lane, sampled on the
  // virtual clock between run_until slices — the series is a pure function
  // of (config, seed), byte-identical at any host parallelism. Armed only
  // on request, unlike a reactor's lane: the obs-overhead gate holds the
  // simulator's per-event cost.
  obs::TelemetryLane tel_lane;
  std::unique_ptr<obs::TelemetryHub> tel_hub;
  std::unique_ptr<obs::TelemetrySampler> tel_sampler;
  if (config.telemetry.enabled) {
    simulator.set_telemetry(&tel_lane);
    tel_hub = std::make_unique<obs::TelemetryHub>(
        std::vector<const obs::TelemetryLane*>{&tel_lane});
    tel_sampler =
        std::make_unique<obs::TelemetrySampler>(*tel_hub, config.telemetry);
  }

  std::uint64_t executed = 0;
  if (tel_sampler != nullptr) {
    // The slices are one pass of the loop, so sim.loop is entered once.
    const obs::LayerScope loop(obs::Layer::kSimLoop);
    while (!simulator.idle()) {
      executed += simulator.run_until(simulator.now() + tel_sampler->interval());
      const obs::LayerScope sampling(obs::Layer::kObs);
      tel_sampler->sample(simulator.now());
    }
  } else {
    executed = simulator.run();
  }

  if (checker != nullptr) {
    // Termination: every member still alive at the end must have delivered
    // an estimate within the deadline (crashed members legitimately stop).
    checker->expect_all_finished(group.alive_members());
  }

  RunResult result;
  result.measurement =
      protocols::measure_run(group, nodes, world.votes, config.aggregate,
                             network->stats(), world.audit.get());
  result.network = network->stats();
  result.sim_events = executed;
  result.sim_end_us = simulator.now().ticks();
  if (config.collect_metrics) {
    result.metrics = observer->metrics(result.network);
    // Whole-run facts that have no natural event: queue pressure, executed
    // events, and end-of-run completeness in basis points (integral, so the
    // merged sweep maximum stays bitwise-deterministic).
    result.metrics.gauges = {
        {"event_queue_depth", simulator.peak_pending_events()},
        {"sim_events", executed},
        {"completeness_bp",
         static_cast<std::uint64_t>(
             result.measurement.mean_completeness * 10'000.0 + 0.5)},
    };
  }
  if (observer != nullptr) result.timeline = observer->timeline();
  if (group.has_positions() && network->stats().messages_sent > 0) {
    result.mean_link_distance =
        network->stats().link_distance_sum /
        static_cast<double>(network->stats().messages_sent);
  }
  if (config.protocol == ProtocolKind::kHierGossip) {
    result.effective_b = analysis::effective_b(
        config.gossip.fanout_m, std::max(0.0, config.ucast_loss),
        static_cast<double>(config.gossip.rounds_per_phase(config.group_size)),
        config.gossip.k, config.group_size);
  }
  return result;
}

}  // namespace

RunResult run_experiment(const ExperimentConfig& config) {
  if (!config.profile) return simulate(config);
  // The clock's window is the whole run, teardown included: its runner
  // layer is the root scope every other layer nests in.
  obs::LayerClock clock;
  RunResult result = simulate(config);
  result.profile = clock.snapshot();
  return result;
}

}  // namespace gridbox::runner
