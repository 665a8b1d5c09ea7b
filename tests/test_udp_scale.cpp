// The real-socket scale gates: N = 1000 members as threads on loopback
// running real hier-gossip rounds over UDP, audit-clean, and in agreement
// with the simulator run of the identical world — plus the same under a
// chaos spec, and one N = 10^4 run that must stay complete. Lives in its
// own binary (gridbox_udp_tests, ctest label `udp`, run serially) because
// thousands of members and real round timers are beyond the tier-1
// wall-clock budget.
//
// Port discipline: this binary's shard sockets start in the 45xxx window.
#include <gtest/gtest.h>

#include "src/runner/differential.h"
#include "src/runner/udp_runtime.h"

// ThreadSanitizer slows every shard several-fold; the N = 10^4 gate is about
// keeping up with the round clock in real time, which an instrumented build
// cannot, so it skips there (the N = 1000 gates still run the same paths
// under TSan).
#if defined(__SANITIZE_THREAD__)
#define GRIDBOX_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GRIDBOX_UNDER_TSAN 1
#endif
#endif

namespace gridbox {
namespace {

[[nodiscard]] runner::UdpRunConfig scale_config(std::uint16_t port_base,
                                                std::uint64_t seed) {
  runner::UdpRunConfig config;
  config.experiment.group_size = 1000;
  config.experiment.ucast_loss = 0.25;  // the paper's ucastl
  config.experiment.crash_probability = 0.0;
  config.experiment.gossip.round_duration = SimTime::millis(5);
  config.experiment.seed = seed;
  config.port_base = port_base;
  return config;
}

TEST(UdpScale, ThousandMemberHierGossipIsAuditCleanOverLoopback) {
  runner::UdpRunConfig config = scale_config(45000, 21);
  config.experiment.audit = true;
  const auto result = runner::run_udp_experiment(config);

  EXPECT_TRUE(result.completed) << "did not finish before the wall deadline";
  EXPECT_EQ(result.invariant_violations, 0u) << result.first_violation;
  EXPECT_EQ(result.measurement.audit_violations, 0u);
  EXPECT_EQ(result.measurement.reconstruction_failures, 0u);
  EXPECT_EQ(result.measurement.finished_nodes, result.measurement.survivors);
  EXPECT_EQ(result.measurement.survivors, 1000u);
  // Real rounds really ran: the reactors fired per-node round timers and the
  // sockets moved the gossip volume, not some empty no-op loop.
  EXPECT_GT(result.timers_fired, 1000u);
  EXPECT_GT(result.network.messages_delivered, 10'000u);
}

TEST(UdpScale, ThousandMemberDifferentialAgreesWithTheSimulator) {
  const auto report = runner::run_udp_differential(scale_config(46000, 22));
  EXPECT_TRUE(report.ok()) << report.describe();
  ASSERT_EQ(report.rows.size(), 2u);
  EXPECT_EQ(report.rows[0].outcome.measurement.true_value,
            report.rows[1].outcome.measurement.true_value);
}

TEST(UdpScale, ThousandMemberDifferentialSurvivesChaos) {
  runner::UdpRunConfig config = scale_config(47000, 23);
  config.experiment.chaos_spec =
      "loss 0.15\n"
      "burst 0us..40000us good=0.05 bad=0.6 go-bad=0.02 go-good=0.2\n"
      "jitter p=0.1 0us..2000us\n"
      "dup p=0.02 extra=1 spread=1000us\n";
  const auto report = runner::run_udp_differential(config);
  EXPECT_TRUE(report.ok()) << report.describe();
}

// Ten thousand members on one socket per shard: every wake must drain a
// phase's worth of deliveries (max_drain per attached member), or they
// queue past their phases and completeness collapses (a flat per-socket
// cap of max_drain scores 0.004-0.27 here). 20 ms rounds leave a 4-CPU host
// headroom at this N. With frames packed per destination socket, user CPU
// is the limit at 5 ms: in ten 5 ms runs on a 4-CPU host, 66-98% of timer
// fires were >= 16 ms late (completeness 0.9997-1.0); in ten 20 ms runs,
// 0.0-0.4% were late and completeness was >= 0.9999. With shards sleeping
// to their next due timer and each round fired in one pass, ten 5 ms
// runs (seeds 1-10, same host) still had 81-91% of fires late, completeness
// 0.945-0.99995 and 1.01-1.21 s elapsed (the code before: 91-98% late,
// 0.958-0.99992, 1.07-1.49 s); in a busier period of the shared host the
// same ten seeds read 93-98% late and completeness down to 0.55. The bar
// for 5 ms rounds (under 1% late and completeness >= 0.998 in 10 of 10
// runs) held in none, so 20 ms stays.
TEST(UdpScale, TenThousandMembersStayCompleteUnderLoss) {
#ifdef GRIDBOX_UNDER_TSAN
  GTEST_SKIP() << "real-time scale gate; ThreadSanitizer cannot keep pace";
#endif
  runner::UdpRunConfig config = scale_config(45100, 24);
  config.experiment.group_size = 10'000;
  config.experiment.gossip.round_duration = SimTime::millis(20);
  config.experiment.audit = true;
  config.experiment.check_invariants = true;
  const auto result = runner::run_udp_experiment(config);

  EXPECT_TRUE(result.completed) << "did not finish before the wall deadline";
  EXPECT_EQ(result.invariant_violations, 0u) << result.first_violation;
  EXPECT_EQ(result.measurement.audit_violations, 0u);
  EXPECT_EQ(result.measurement.reconstruction_failures, 0u);
  EXPECT_EQ(result.measurement.finished_nodes, result.measurement.survivors);
  EXPECT_GE(result.measurement.mean_completeness, 0.99);
}

}  // namespace
}  // namespace gridbox
