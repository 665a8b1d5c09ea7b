// Metrics snapshots + run-level metric determinism and reconciliation.
//
// Three layers:
//   1. Unit: the fixed-bucket histogram rule and snapshot merge algebra.
//   2. Determinism: sweep-merged snapshots are bitwise-identical at
//      --jobs 1 and --jobs 8 (the PR-1 discipline extended to metrics).
//   3. Reconciliation: exported metric totals agree exactly with the
//      transport's own NetworkStats on all four protocols, under chaos —
//      the differential-oracle worlds cross-checked against the snapshot
//      built from them.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/run_observer.h"
#include "src/runner/config.h"
#include "src/runner/experiment.h"
#include "src/runner/sweep.h"
#include "tests/golden.h"

namespace gridbox {
namespace {

using obs::MetricsSnapshot;
using HistogramData = obs::MetricsSnapshot::HistogramData;
using runner::ExperimentConfig;
using runner::ProtocolKind;
using runner::RunResult;

// The run observer's fanout histogram bucket edges, value by value: each
// edge lands in its own bucket (bounds are inclusive upper limits),
// interior values fall into the first bucket whose edge is >= the value.
TEST(Metrics, FanoutHistogramBucketEdges) {
  HistogramData h = obs::RunObserver::empty_fanout_hist();
  for (const std::uint64_t v : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17}) {
    h.observe(v);
  }
  ASSERT_EQ(h.counts.size(), 9u);
  EXPECT_EQ(h.counts[0], 1u);  // {0}
  EXPECT_EQ(h.counts[1], 1u);  // {1}
  EXPECT_EQ(h.counts[2], 1u);  // {2}
  EXPECT_EQ(h.counts[3], 1u);  // {3}
  EXPECT_EQ(h.counts[4], 1u);  // {4}
  EXPECT_EQ(h.counts[5], 2u);  // (4,6] = {5,6}
  EXPECT_EQ(h.counts[6], 2u);  // (6,8] = {7,8}
  EXPECT_EQ(h.counts[7], 2u);  // (8,16] = {9,16}
  EXPECT_EQ(h.counts[8], 1u);  // >16 overflow
  EXPECT_EQ(std::accumulate(h.counts.begin(), h.counts.end(), std::uint64_t{0}),
            12u);
}

MetricsSnapshot snapshot_with(std::uint64_t a, std::uint64_t gauge,
                              std::vector<std::uint64_t> hist_counts) {
  MetricsSnapshot snap;
  snap.counters["c"] = a;
  snap.gauges["g"] = gauge;
  snap.histograms["h"] = HistogramData{{1, 2}, std::move(hist_counts)};
  return snap;
}

// Counters sum, gauges take the max, histograms add bucket-wise — and the
// fold is associative, so the sweep reducer's slot order is irrelevant.
TEST(Metrics, SnapshotMergeSemanticsAndAssociativity) {
  const MetricsSnapshot a = snapshot_with(1, 5, {1, 0, 0});
  const MetricsSnapshot b = snapshot_with(2, 9, {0, 2, 0});
  const MetricsSnapshot c = snapshot_with(4, 7, {0, 0, 3});

  MetricsSnapshot ab = a;
  ab.merge(b);
  EXPECT_EQ(ab.counter_or_zero("c"), 3u);
  EXPECT_EQ(ab.counter_or_zero("missing"), 0u);
  EXPECT_EQ(ab.gauges.at("g"), 9u);
  EXPECT_EQ(ab.histograms.at("h").counts, (std::vector<std::uint64_t>{1, 2, 0}));

  MetricsSnapshot ab_c = ab;
  ab_c.merge(c);
  MetricsSnapshot bc = b;
  bc.merge(c);
  MetricsSnapshot a_bc = a;
  a_bc.merge(bc);
  EXPECT_EQ(ab_c.to_json(), a_bc.to_json());

  // Commutativity too: the reducer does not rely on it, but it is part of
  // the documented contract.
  MetricsSnapshot ba = b;
  ba.merge(a);
  EXPECT_EQ(ab.to_json(), ba.to_json());
}

TEST(Metrics, MergeIntoEmptyAdoptsEverything) {
  const MetricsSnapshot a = snapshot_with(3, 2, {1, 1, 1});
  MetricsSnapshot empty;
  empty.merge(a);
  EXPECT_EQ(empty.to_json(), a.to_json());
}

TEST(Metrics, SnapshotJsonIsNameOrderedAndStable) {
  MetricsSnapshot snap;
  snap.counters["zeta"] = 1;
  snap.counters["alpha"] = 2;
  const std::string json = snap.to_json();
  EXPECT_LT(json.find("alpha"), json.find("zeta"));
  EXPECT_EQ(json, snap.to_json());
}

ExperimentConfig metrics_config() {
  ExperimentConfig config;
  config.group_size = 48;
  config.ucast_loss = 0.2;
  config.crash_probability = 0.001;
  config.collect_metrics = true;
  config.seed = 77;
  return config;
}

// The headline determinism guarantee: identical merged metric snapshots —
// and identical sweep points — whether the sweep ran on 1 thread or 8.
TEST(Metrics, SweepSnapshotsBitwiseIdenticalAcrossJobs) {
  const auto run_at = [](std::size_t jobs) {
    ExperimentConfig base = metrics_config();
    base.jobs = jobs;
    return runner::run_sweep(
        base, "loss", {0.0, 0.15, 0.3},
        [](ExperimentConfig& c, double x) { c.ucast_loss = x; }, 4);
  };
  const runner::SweepResult serial = run_at(1);
  const runner::SweepResult parallel = run_at(8);

  ASSERT_FALSE(serial.metrics.empty());
  EXPECT_EQ(serial.metrics.to_json(), parallel.metrics.to_json());
  EXPECT_EQ(serial.total_sim_events, parallel.total_sim_events);

  ASSERT_EQ(serial.points.size(), parallel.points.size());
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    EXPECT_EQ(serial.points[i].incompleteness.mean,
              parallel.points[i].incompleteness.mean);
    EXPECT_EQ(serial.points[i].messages.mean, parallel.points[i].messages.mean);
  }
}

// Histogram merge at bucket boundaries: sweeping the gossip fanout over
// values that sit exactly on the fanout histogram's edges (1, 2, 4) must
// merge per-run histograms into identical counts at --jobs 1 and --jobs 8 —
// no observation may migrate across a bucket edge during the merge.
TEST(Metrics, FanoutHistogramMergeIdenticalAcrossJobs) {
  const auto run_at = [](std::size_t jobs) {
    ExperimentConfig base = metrics_config();
    base.jobs = jobs;
    return runner::run_sweep(
        base, "m", {1.0, 2.0, 4.0},
        [](ExperimentConfig& c, double x) {
          c.gossip.fanout_m = static_cast<std::uint32_t>(x);
        },
        3);
  };
  const runner::SweepResult serial = run_at(1);
  const runner::SweepResult parallel = run_at(8);

  const auto& serial_hist = serial.metrics.histograms.at("gossip_fanout_hist");
  const auto& parallel_hist =
      parallel.metrics.histograms.at("gossip_fanout_hist");
  EXPECT_EQ(serial_hist.counts, parallel_hist.counts);
  EXPECT_EQ(serial_hist.bounds, parallel_hist.bounds);
  std::uint64_t total = 0;
  for (const std::uint64_t c : serial_hist.counts) total += c;
  EXPECT_EQ(total, serial.metrics.counter_or_zero("gossip_rounds"));
  EXPECT_EQ(serial.metrics.to_json(), parallel.metrics.to_json());
}

void expect_reconciles(const ExperimentConfig& config) {
  const RunResult result = runner::run_experiment(config);
  const MetricsSnapshot& m = result.metrics;
  ASSERT_FALSE(m.empty());
  const net::NetworkStats& net = result.network;

  // The observer mirrors NetworkStats one-to-one; any divergence means an
  // instrumentation hook is missing or double-fires.
  EXPECT_EQ(m.counter_or_zero("msgs_sent"), net.messages_sent);
  EXPECT_EQ(m.counter_or_zero("msgs_dropped"), net.messages_dropped);
  EXPECT_EQ(m.counter_or_zero("msgs_duplicated"), net.messages_duplicated);
  EXPECT_EQ(m.counter_or_zero("msgs_delivered"), net.messages_delivered);
  EXPECT_EQ(m.counter_or_zero("msgs_dead_dest"), net.messages_dead_dest);
  EXPECT_EQ(m.counter_or_zero("msgs_malformed"), net.messages_malformed);
  EXPECT_EQ(m.counter_or_zero("bytes_on_wire"), net.bytes_sent);

  // Protocol-layer cross-check: network messages as measured by
  // protocol_stats equals the transport total equals the metric.
  EXPECT_EQ(m.counter_or_zero("msgs_sent"),
            result.measurement.network_messages);

  // Per-phase attribution is a partition of all sends.
  std::uint64_t by_phase = 0;
  for (const auto& [name, value] : m.counters) {
    if (name.rfind("msgs_sent_by_phase.", 0) == 0) by_phase += value;
  }
  EXPECT_EQ(by_phase, net.messages_sent);
}

// Chaos worlds exercise every drop/dup path; audit keeps the protocol
// accounting honest at the same time.
ExperimentConfig chaos_world(ProtocolKind protocol) {
  ExperimentConfig config;
  config.protocol = protocol;
  config.group_size = 40;
  config.ucast_loss = 0.1;
  config.crash_probability = 0.0;
  config.collect_metrics = true;
  config.audit = true;
  config.chaos_spec =
      "loss 0.2\n"
      "dup p=0.15 extra=1 spread=400us\n"
      "jitter p=0.2 0us..1ms\n"
      "crash M5 at=30ms\n";
  config.seed = 1234;
  return config;
}

TEST(MetricsReconcile, HierGossipUnderChaos) {
  expect_reconciles(chaos_world(ProtocolKind::kHierGossip));
}

TEST(MetricsReconcile, FullyDistributedUnderChaos) {
  expect_reconciles(chaos_world(ProtocolKind::kFullyDistributed));
}

TEST(MetricsReconcile, CentralizedUnderChaos) {
  expect_reconciles(chaos_world(ProtocolKind::kCentralized));
}

TEST(MetricsReconcile, CommitteeUnderChaos) {
  expect_reconciles(chaos_world(ProtocolKind::kCommittee));
}

TEST(MetricsReconcile, LossyCrashyHierGossipWithoutChaos) {
  ExperimentConfig config = metrics_config();
  config.audit = true;
  expect_reconciles(config);
}

// The merged `gridbox_sim --metrics` document of a two-run chaos sweep
// (runs seeded seed and seed + 1, merged in run order as the CLI does),
// pinned byte for byte. Loss, duplication, jitter, a scripted crash and
// per-round crashes make every counter but msgs_malformed (the simulator
// never corrupts a frame), the fanout histogram and the per-phase sends
// non-zero, so a change to any accounting path shows here.
TEST(MetricsGolden, MergedChaosRunsMatchFixture) {
  MetricsSnapshot merged;
  for (std::uint64_t run = 0; run < 2; ++run) {
    ExperimentConfig config = chaos_world(ProtocolKind::kHierGossip);
    config.crash_probability = 0.001;
    config.seed += run;
    merged.merge(runner::run_experiment(config).metrics);
  }
  for (const auto& [name, value] : merged.counters) {
    if (name != "msgs_malformed") {
      EXPECT_GT(value, 0u) << name;
    }
  }
  EXPECT_GT(merged.counter_or_zero("msgs_sent_by_phase.01"), 0u);
  std::uint64_t fanout_rounds = 0;
  for (const std::uint64_t c :
       merged.histograms.at("gossip_fanout_hist").counts) {
    fanout_rounds += c;
  }
  EXPECT_GT(fanout_rounds, 0u);
  testing::check_against_golden("metrics_chaos_n40_seed1234.json",
                                merged.to_json());
}

// Gossip-layer metrics only exist for hier-gossip: rounds recorded, fanout
// histogram totals match the round count, and the queue-depth gauge saw a
// nonempty queue.
TEST(MetricsReconcile, GossipRoundMetricsAreCoherent) {
  const RunResult result = runner::run_experiment(metrics_config());
  const MetricsSnapshot& m = result.metrics;
  const std::uint64_t rounds = m.counter_or_zero("gossip_rounds");
  EXPECT_GT(rounds, 0u);
  const auto& hist = m.histograms.at("gossip_fanout_hist");
  std::uint64_t observed = 0;
  for (const std::uint64_t c : hist.counts) observed += c;
  EXPECT_EQ(observed, rounds);
  EXPECT_GT(m.gauges.at("event_queue_depth"), 0u);
  EXPECT_EQ(m.gauges.at("sim_events"), result.sim_events);
  EXPECT_GT(m.counter_or_zero("finishes"), 0u);
  EXPECT_GT(m.counter_or_zero("phase_conclusions"), 0u);
}

// Timelines ride along with metrics and must agree with the counters.
TEST(MetricsReconcile, TimelineAgreesWithCounters) {
  const RunResult result = runner::run_experiment(metrics_config());
  std::uint64_t timeline_msgs = 0;
  std::uint64_t timeline_rounds = 0;
  std::uint64_t timeline_conclusions = 0;
  for (const auto& span : result.timeline.phases) {
    timeline_msgs += span.msgs_sent;
    timeline_rounds += span.rounds;
    timeline_conclusions += span.concluded;
  }
  EXPECT_EQ(timeline_msgs, result.metrics.counter_or_zero("msgs_sent"));
  EXPECT_EQ(timeline_rounds, result.metrics.counter_or_zero("gossip_rounds"));
  EXPECT_EQ(timeline_conclusions,
            result.metrics.counter_or_zero("phase_conclusions"));
}

// Metrics collection must not change what the run computes: same seed, same
// measurement, with and without instrumentation.
TEST(MetricsReconcile, CollectionDoesNotPerturbResults) {
  ExperimentConfig with = metrics_config();
  ExperimentConfig without = with;
  without.collect_metrics = false;
  const RunResult a = runner::run_experiment(with);
  const RunResult b = runner::run_experiment(without);
  EXPECT_EQ(a.measurement.mean_completeness, b.measurement.mean_completeness);
  EXPECT_EQ(a.measurement.network_messages, b.measurement.network_messages);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_TRUE(b.metrics.empty());
}

}  // namespace
}  // namespace gridbox
