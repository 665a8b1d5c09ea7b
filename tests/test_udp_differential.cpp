// UDP-vs-simulator differential oracle at tier-1 scale.
//
// Runs the same (config, seed) world through the discrete-event simulator
// and over real UDP sockets on loopback, and asserts the substrate-axis
// agreement rule of differential.h: both runs complete, both are
// audit-clean, both reconstruct every estimate, and both report the
// bit-identical ground-truth value. The N=1000 version of this check lives
// in test_udp_scale.cpp (gridbox_udp_tests); here N stays small enough for
// the tier-1 wall-clock budget.
//
// Port discipline: this binary's tests own the 44xxx window.
#include <gtest/gtest.h>

#include "src/runner/differential.h"

namespace gridbox {
namespace {

[[nodiscard]] runner::UdpRunConfig small_config(std::uint16_t port_base,
                                                std::uint64_t seed) {
  runner::UdpRunConfig config;
  config.experiment.group_size = 48;
  config.experiment.ucast_loss = 0.10;
  config.experiment.crash_probability = 0.0;
  config.experiment.gossip.round_duration = SimTime::millis(2);
  config.experiment.seed = seed;
  config.port_base = port_base;
  return config;
}

TEST(UdpDifferential, HierGossipAgreesWithTheSimulatorUnderLoss) {
  const auto report = runner::run_udp_differential(small_config(44000, 11));
  EXPECT_TRUE(report.ok()) << report.describe();
  EXPECT_TRUE(report.udp_run.completed);
  EXPECT_EQ(report.udp_run.invariant_violations, 0u)
      << report.udp_run.first_violation;
  // Bit-identical world: the ground truth is shared, not merely close.
  ASSERT_EQ(report.rows.size(), 2u);
  const protocols::RunMeasurement& sim = report.rows[0].outcome.measurement;
  const protocols::RunMeasurement& udp = report.rows[1].outcome.measurement;
  EXPECT_EQ(sim.true_value, udp.true_value);
  EXPECT_EQ(udp.finished_nodes, udp.survivors);
}

TEST(UdpDifferential, AgreesUnderAChaosSpec) {
  auto config = small_config(44100, 12);
  config.experiment.chaos_spec =
      "loss 0.1\n"
      "jitter p=0.2 0us..1000us\n"
      "dup p=0.05 extra=1 spread=500us\n";
  const auto report = runner::run_udp_differential(config);
  EXPECT_TRUE(report.ok()) << report.describe();
  // The dup directive must actually exercise the duplicate path on the
  // socket side; a vacuous pass here would mean the shim is not wired.
  EXPECT_GT(report.udp_run.network.messages_duplicated, 0u);
}

TEST(UdpDifferential, AgreesForTheAllToAllBaseline) {
  auto config = small_config(44200, 13);
  config.experiment.protocol = runner::ProtocolKind::kFullyDistributed;
  const auto report = runner::run_udp_differential(config);
  EXPECT_TRUE(report.ok()) << report.describe();
}

TEST(UdpDifferential, DescribeNamesBothRows) {
  const auto report = runner::run_udp_differential(small_config(44300, 14));
  const std::string text = report.describe();
  EXPECT_NE(text.find("sim:"), std::string::npos) << text;
  EXPECT_NE(text.find("udp:"), std::string::npos) << text;
  EXPECT_NE(text.find("OK"), std::string::npos) << text;
}

}  // namespace
}  // namespace gridbox
