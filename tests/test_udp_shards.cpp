// Shard-count invariance of the real-socket runner (DESIGN.md §14).
//
// The reactor mesh partitions members over shard threads by id % shards,
// and every shard dispatches its own members lock-free. None of that may
// be observable in the result: the same (config, seed) world run at 1, 2,
// and 4 shards must complete, stay invariant-clean, and report the
// bit-identical ground-truth value — sharding is an execution detail, not
// a semantic one.
//
// Port discipline: this test owns the 40000–40400 window (the slow UDP
// soak binds 48xxx/49xxx and may run alongside under ctest -j).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/runner/udp_runtime.h"

namespace gridbox {
namespace {

[[nodiscard]] runner::UdpRunConfig shard_config(std::uint16_t port_base,
                                                std::size_t shards) {
  runner::UdpRunConfig config;
  config.experiment.group_size = 32;
  config.experiment.seed = 31;
  config.experiment.ucast_loss = 0.10;
  // Round-probability crashes race the wall clock (a member's crash timer
  // may or may not fire before the run completes, depending on host load),
  // so ground truth would not be run-to-run deterministic with pf > 0.
  // The ground-truth gates zero it; scripted chaos crashes are the
  // alternative.
  config.experiment.crash_probability = 0.0;
  config.experiment.gossip.round_duration = SimTime::millis(2);
  config.experiment.check_invariants = true;
  config.port_base = port_base;
  config.shards = shards;
  return config;
}

TEST(UdpShards, GroundTruthIsBitEqualAcrossShardCounts) {
  std::vector<runner::UdpRunResult> results;
  std::uint16_t port_base = 40000;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const runner::UdpRunResult r =
        runner::run_udp_experiment(shard_config(port_base, shards));
    port_base += 100;
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.shards, shards);
    EXPECT_EQ(r.invariant_violations, 0u) << r.first_violation;
    EXPECT_EQ(r.measurement.finished_nodes, r.measurement.survivors);
    results.push_back(r);
  }
  // Sharding must not leak into the answer: same world, same ground truth,
  // bit for bit, at every thread count.
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].measurement.true_value,
              results[0].measurement.true_value);
    EXPECT_EQ(results[i].measurement.survivors,
              results[0].measurement.survivors);
  }
}

// The paper's per-round crashes on sockets: the crash clock ticks on the
// control shard while members on every shard finish or crash, and the run
// ends once each survivor has finished. Which members crash races the wall
// clock, so only the outcome's shape is checked; at pf = 0.05 a run of a
// few rounds crashes nobody with probability below 1e-6.
TEST(UdpShards, PerRoundCrashesEndWithEverySurvivorFinished) {
  runner::UdpRunConfig config = shard_config(40300, 4);
  config.experiment.group_size = 64;
  config.experiment.crash_probability = 0.05;
  const runner::UdpRunResult r = runner::run_udp_experiment(config);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.invariant_violations, 0u) << r.first_violation;
  EXPECT_LT(r.measurement.survivors, config.experiment.group_size);
  EXPECT_EQ(r.measurement.finished_nodes, r.measurement.survivors);
}

}  // namespace
}  // namespace gridbox
