// Real-socket service gate (ctest labels udp + service, serial): a
// 64-instance pipelined service run over loopback UDP under chaos loss and
// scripted churn, cross-checked per instance against the simulator — every
// instance must be audit-clean, reconstructing, invariant-clean, and
// bit-equal on ground truth across the two substrates. Also the one-shot
// UDP runner's churn rejection (validated before any socket binds), and
// shard-count invariance of the service stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/ensure.h"
#include "src/protocols/protocol_stats.h"
#include "src/runner/differential.h"
#include "src/runner/udp_runtime.h"
#include "src/service/udp_service.h"

namespace gridbox {
namespace {

TEST(UdpService, OneShotUdpRunnerRejectsChurnSpecs) {
  runner::UdpRunConfig config;
  config.experiment.group_size = 16;
  config.experiment.chaos_spec = "join M1 at=5ms\n";
  EXPECT_THROW((void)runner::run_udp_experiment(config), PreconditionError);
}

TEST(UdpService, SixtyFourInstanceDifferentialUnderLossAndChurn) {
  service::UdpServiceConfig config;
  config.service.experiment.group_size = 32;
  config.service.experiment.seed = 21;
  config.service.experiment.ucast_loss = 0.0;  // loss scripted below
  config.service.experiment.crash_probability = 0.0;
  config.service.experiment.gossip.round_duration = SimTime::millis(2);
  config.service.experiment.chaos_spec =
      "loss 0.05\ncrash M3 at=30ms\njoin M5 at=40ms\nrecover M3 at=80ms\n";
  config.service.instances = 64;
  config.service.epoch_interval = SimTime::millis(5);
  // Window 8 gives the stream headroom: a deferred launch fires when a
  // slot frees, which is sim-timed on one substrate and wall-timed on the
  // other, so a saturated window could legitimately shift a cohort
  // (docs/service.md). Deferral is therefore NOT asserted to be zero below
  // — on a loaded host the wall clock can outrun the window anyway — the
  // pipelining proof is the windowed-overlap count, and the per-instance
  // ground-truth bit-equality stays strict either way.
  config.service.max_in_flight = 8;
  config.port_base = 42000;

  const runner::DifferentialReport report =
      runner::run_service_differential(config);
  EXPECT_TRUE(report.ok()) << report.describe();
  ASSERT_EQ(report.rows.size(), 128u);  // one per instance and substrate
  const auto sim_completed = std::count_if(
      report.rows.begin(), report.rows.end(), [](const auto& row) {
        return row.label == "sim" && row.ran && row.outcome.completed;
      });
  EXPECT_EQ(sim_completed, 64);
  const service::UdpServiceResult& udp = report.udp_service;
  EXPECT_EQ(udp.result.metrics.completed, 64u);

  // The stream genuinely pipelined: an instance takes several times the
  // launch cadence, so successive epochs overlapped in flight. Proven by
  // counting windowed overlaps — consecutive instances whose lifetimes
  // [launched_at, completed_at) intersect — rather than by asserting the
  // window never filled: deferral depends on wall-clock completion speed,
  // which a loaded CI host legitimately varies.
  EXPECT_GT(udp.result.metrics.p50_completion,
            config.service.epoch_interval);
  std::size_t overlapped = 0;
  const std::vector<service::InstanceResult>& rows = udp.result.instances;
  for (std::size_t i = 0; i + 1 < rows.size(); ++i) {
    if (rows[i + 1].launched_at < rows[i].completed_at) ++overlapped;
  }
  EXPECT_GT(overlapped, rows.size() / 2)
      << "only " << overlapped << " of " << rows.size() - 1
      << " consecutive instance pairs overlapped in flight";
  EXPECT_GT(udp.result.metrics.instances_per_sec, 0.0);
  // One socket set served the whole stream; the demux rejected nothing a
  // healthy run should deliver.
  EXPECT_GT(udp.result.metrics.demux.delivered, 0u);
  EXPECT_EQ(udp.result.metrics.demux.malformed_envelope, 0u);
  EXPECT_EQ(udp.result.metrics.demux.unknown_instance, 0u);
}

// Sharding is an execution detail of the service too: the same 8-instance
// stream under loss, run on 1, 2 and 4 reactor shards, must resolve every
// instance cleanly and derive the bit-identical world per instance at every
// shard count. Port window 41000–41300.
TEST(UdpService, ShardSweepKeepsEveryInstanceCleanAndBitEqual) {
  std::vector<service::UdpServiceResult> runs;
  std::uint16_t port_base = 41000;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    service::UdpServiceConfig config;
    config.service.experiment.group_size = 32;
    config.service.experiment.seed = 17;
    config.service.experiment.ucast_loss = 0.10;
    config.service.experiment.crash_probability = 0.0;
    config.service.experiment.gossip.round_duration = SimTime::millis(2);
    config.service.experiment.audit = true;
    config.service.experiment.check_invariants = true;
    config.service.instances = 8;
    config.service.epoch_interval = SimTime::millis(5);
    config.port_base = port_base;
    config.shards = shards;
    port_base += 100;

    const service::UdpServiceResult run = service::run_udp_service(config);
    EXPECT_EQ(run.shards, shards);
    EXPECT_TRUE(run.result.completed);
    ASSERT_EQ(run.result.instances.size(), 8u);
    for (const service::InstanceResult& instance : run.result.instances) {
      SCOPED_TRACE("instance " + std::to_string(instance.id));
      EXPECT_TRUE(instance.completed);
      EXPECT_TRUE(protocols::honest(instance.measurement));
      EXPECT_EQ(instance.invariant_violations, 0u) << instance.first_violation;
    }
    runs.push_back(run);
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    for (std::size_t i = 0; i < runs[0].result.instances.size(); ++i) {
      const service::InstanceResult& base = runs[0].result.instances[i];
      const service::InstanceResult& other = runs[r].result.instances[i];
      EXPECT_EQ(other.measurement.true_value, base.measurement.true_value)
          << "instance " << i << " at " << runs[r].shards << " shards";
      EXPECT_EQ(other.participants, base.participants)
          << "instance " << i << " at " << runs[r].shards << " shards";
    }
  }
}

}  // namespace
}  // namespace gridbox
