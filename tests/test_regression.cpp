// Seeded regression goldens: exact measured values at fixed seeds, pinning
// the deterministic behaviour of the whole stack (RNG streams, event
// ordering, fault draws, protocol logic). Any intentional protocol change
// will move these — update the constants consciously, with DESIGN.md in
// hand. An *unintentional* diff here means nondeterminism or a semantic
// regression slipped in.
#include <gtest/gtest.h>

#include <iterator>

#include "bench/micro_cases.h"
#include "src/runner/experiment.h"

namespace gridbox {
namespace {

using runner::ExperimentConfig;
using runner::ProtocolKind;
using runner::RunResult;
using runner::run_experiment;

TEST(RegressionGolden, DefaultsSeed42) {
  ExperimentConfig config;
  config.seed = 42;
  config.audit = true;
  const RunResult r = run_experiment(config);
  // Golden values recorded from the release build of this revision.
  EXPECT_EQ(r.measurement.survivors, 187u);
  EXPECT_EQ(r.measurement.network_messages, 11952u);
  EXPECT_EQ(r.measurement.max_rounds, 32u);
  EXPECT_EQ(r.measurement.audit_violations, 0u);
  EXPECT_NEAR(r.measurement.mean_completeness, 1.0, 0.05);
}

TEST(RegressionGolden, DefaultsSeed42IsStableAcrossRepeats) {
  ExperimentConfig config;
  config.seed = 42;
  const RunResult a = run_experiment(config);
  const RunResult b = run_experiment(config);
  EXPECT_EQ(a.measurement.mean_completeness, b.measurement.mean_completeness);
  EXPECT_EQ(a.measurement.network_messages, b.measurement.network_messages);
  EXPECT_EQ(a.measurement.survivors, b.measurement.survivors);
  EXPECT_EQ(a.network.messages_dropped, b.network.messages_dropped);
  EXPECT_EQ(a.network.bytes_sent, b.network.bytes_sent);
}

TEST(RegressionGolden, LeaderBaselineSeed7) {
  ExperimentConfig config;
  config.protocol = ProtocolKind::kLeaderElection;
  config.group_size = 128;
  config.ucast_loss = 0.1;
  config.crash_probability = 0.0;
  config.seed = 7;
  config.audit = true;
  const RunResult r = run_experiment(config);
  EXPECT_EQ(r.measurement.survivors, 128u);
  EXPECT_EQ(r.measurement.audit_violations, 0u);
  // Deterministic given the seed; exact message count pins the protocol's
  // send schedule.
  EXPECT_GT(r.measurement.network_messages, 0u);
  const RunResult again = run_experiment(config);
  EXPECT_EQ(r.measurement.network_messages,
            again.measurement.network_messages);
  EXPECT_EQ(r.measurement.mean_completeness,
            again.measurement.mean_completeness);
}

TEST(RegressionGolden, ConfigFieldChangesChangeTheRun) {
  // The seed derivation must feed every stochastic component: flipping a
  // fault knob must actually alter the trajectory. (Note sends are NOT a
  // valid probe for the loss knob: with final-phase lingering every node
  // gossips the full round grid regardless of what gets through, so only
  // deliveries and outcomes change.)
  ExperimentConfig base;
  base.seed = 99;
  ExperimentConfig lossier = base;
  lossier.ucast_loss = 0.5;
  ExperimentConfig crashier = base;
  crashier.crash_probability = 0.02;

  const RunResult r0 = run_experiment(base);
  const RunResult r_loss = run_experiment(lossier);
  const RunResult r_crash = run_experiment(crashier);
  EXPECT_NE(r0.network.messages_dropped, r_loss.network.messages_dropped);
  EXPECT_LT(r_loss.measurement.mean_completeness,
            r0.measurement.mean_completeness + 1e-12);
  EXPECT_NE(r0.measurement.network_messages,
            r_crash.measurement.network_messages);
  EXPECT_LT(r_crash.measurement.survivors, r0.measurement.survivors);
}

// The work gate: what each micro benchmark case counts, pinned exactly.
// These counts do not depend on the host, so they gate at zero tolerance
// where wall time cannot (wall time is a same-runner A/B; docs/perf.md). A
// deliberate behaviour change updates them in the same commit.
struct MicroWork {
  const char* name;
  std::uint64_t sim_events;
  std::uint64_t network_messages;
  std::uint64_t bytes_sent;
};

constexpr MicroWork kMicroWork[] = {
    {"hier_n200", 15647, 12196, 1566806},
    {"hier_n200_metrics", 15647, 12196, 1566806},
    {"hier_n200_audit", 15647, 12196, 1566806},
    {"hier_n800", 97303, 76446, 10508656},
    {"all_to_all_n200", 48146, 38042, 798882},
    {"centralized_n200", 20699, 397, 13113},
};

TEST(RegressionGolden, MicroBenchCasesCountTheirPinnedWork) {
  const std::vector<bench::MicroCase> cases = bench::micro_cases();
  ASSERT_EQ(cases.size(), std::size(kMicroWork));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const MicroWork& want = kMicroWork[i];
    SCOPED_TRACE(want.name);
    EXPECT_EQ(cases[i].name, want.name);
    const RunResult r = run_experiment(cases[i].config);
    EXPECT_EQ(r.sim_events, want.sim_events);
    EXPECT_EQ(r.measurement.network_messages, want.network_messages);
    EXPECT_EQ(r.network.bytes_sent, want.bytes_sent);
  }
}

}  // namespace
}  // namespace gridbox
