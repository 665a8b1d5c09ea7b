#include "src/runner/experiment.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>

#include "src/common/ensure.h"
#include "src/runner/stats.h"
#include "src/runner/sweep.h"
#include "src/runner/table.h"
#include "src/runner/world_setup.h"

namespace gridbox::runner {
namespace {

TEST(Stats, SummarizeKnownSamples) {
  const SummaryStats s = summarize({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_NEAR(s.stddev, 1.5811, 1e-3);
  EXPECT_GT(s.ci95_half_width, 0.0);
}

TEST(Stats, EvenCountMedianAveragesMiddlePair) {
  const SummaryStats s = summarize({1.0, 2.0, 10.0, 20.0});
  EXPECT_DOUBLE_EQ(s.median, 6.0);
}

TEST(Stats, SingleSampleHasZeroSpread) {
  const SummaryStats s = summarize({7.5});
  EXPECT_DOUBLE_EQ(s.mean, 7.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_half_width, 0.0);
}

TEST(Stats, EmptyInputThrows) {
  EXPECT_THROW((void)summarize({}), PreconditionError);
}

TEST(Stats, GeometricMeanBasics) {
  EXPECT_NEAR(geometric_mean({1.0, 100.0}), 10.0, 1e-9);
  EXPECT_NEAR(geometric_mean({5.0, 5.0, 5.0}), 5.0, 1e-9);
  // Zeros are clamped to the floor, not fatal.
  EXPECT_GT(geometric_mean({0.0, 1.0}), 0.0);
}

TEST(Table, AlignedTextOutput) {
  Table t({"x", "value"});
  t.add_row({"1", "10.5"});
  t.add_row({"200", "3"});
  const std::string text = t.to_text();
  EXPECT_NE(text.find("x"), std::string::npos);
  EXPECT_NE(text.find("200"), std::string::npos);
  EXPECT_NE(text.find("-----"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), PreconditionError);
}

TEST(Table, CsvEscapesSpecialCharacters) {
  Table t({"name", "note"});
  t.add_row({"plain", "a,b"});
  t.add_row({"quoted", "say \"hi\""});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, NumFormatsCompactly) {
  EXPECT_EQ(Table::num(0.0), "0.0000");
  EXPECT_EQ(Table::num(123.0), "123.0");
  EXPECT_EQ(Table::num(1.5, 2), "1.50");
  EXPECT_NE(Table::num(1e-9).find("e"), std::string::npos);
}

TEST(Table, WriteCsvRoundTrips) {
  Table t({"a"});
  t.add_row({"1"});
  const std::string path = ::testing::TempDir() + "gridbox_table_test.csv";
  ASSERT_TRUE(t.write_csv(path));
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a");
  std::getline(in, line);
  EXPECT_EQ(line, "1");
  std::remove(path.c_str());
}

ExperimentConfig lossless_config(std::size_t n) {
  ExperimentConfig config;
  config.group_size = n;
  config.ucast_loss = 0.0;
  config.crash_probability = 0.0;
  // Generous budget: lossless runs then reach exact completeness (checked
  // below on fixed seeds).
  config.gossip.round_multiplier_c = 4.0;
  config.audit = true;
  return config;
}

TEST(Experiment, LosslessGossipIsPerfectlyComplete) {
  const RunResult r = run_experiment(lossless_config(64));
  EXPECT_EQ(r.measurement.group_size, 64u);
  EXPECT_EQ(r.measurement.survivors, 64u);
  EXPECT_EQ(r.measurement.finished_nodes, 64u);
  EXPECT_DOUBLE_EQ(r.measurement.mean_completeness, 1.0);
  EXPECT_DOUBLE_EQ(r.measurement.mean_incompleteness, 0.0);
  EXPECT_NEAR(r.measurement.mean_abs_error, 0.0, 1e-12);
  EXPECT_EQ(r.measurement.audit_violations, 0u);
  EXPECT_GT(r.effective_b, 0.0);
}

TEST(Experiment, SameSeedSameResult) {
  ExperimentConfig config;
  config.group_size = 100;
  config.seed = 1234;
  const RunResult a = run_experiment(config);
  const RunResult b = run_experiment(config);
  EXPECT_EQ(a.measurement.mean_completeness, b.measurement.mean_completeness);
  EXPECT_EQ(a.measurement.network_messages, b.measurement.network_messages);
  EXPECT_EQ(a.network.messages_dropped, b.network.messages_dropped);
}

TEST(Experiment, DifferentSeedsDiffer) {
  ExperimentConfig config;
  config.group_size = 100;
  config.seed = 1;
  const RunResult a = run_experiment(config);
  config.seed = 2;
  const RunResult b = run_experiment(config);
  EXPECT_NE(a.measurement.network_messages, b.measurement.network_messages);
}

TEST(Experiment, LossyRunStillAuditClean) {
  ExperimentConfig config;
  config.group_size = 150;
  config.ucast_loss = 0.4;
  config.crash_probability = 0.003;
  config.audit = true;
  const RunResult r = run_experiment(config);
  EXPECT_EQ(r.measurement.audit_violations, 0u);
  EXPECT_LE(r.measurement.mean_completeness, 1.0);
  EXPECT_GT(r.measurement.mean_completeness, 0.3);
  EXPECT_LE(r.measurement.survivors, 150u);
}

TEST(Experiment, PartitionLossDegradesCompleteness) {
  ExperimentConfig base = lossless_config(100);
  base.ucast_loss = 0.1;
  const double clean =
      run_experiment(base).measurement.mean_completeness;
  base.partition_loss = 0.9;
  const double partitioned =
      run_experiment(base).measurement.mean_completeness;
  EXPECT_LT(partitioned, clean);
  EXPECT_GT(partitioned, 0.2);  // each half still aggregates itself
}

TEST(Experiment, EveryProtocolRunsLossless) {
  for (const ProtocolKind kind :
       {ProtocolKind::kHierGossip, ProtocolKind::kFullyDistributed,
        ProtocolKind::kCentralized, ProtocolKind::kLeaderElection,
        ProtocolKind::kCommittee}) {
    ExperimentConfig config = lossless_config(48);
    config.protocol = kind;
    config.committee.committee_size = 2;
    const RunResult r = run_experiment(config);
    EXPECT_GE(r.measurement.mean_completeness, 0.999) << to_string(kind);
    EXPECT_EQ(r.measurement.audit_violations, 0u) << to_string(kind);
  }
}

TEST(Experiment, TopoAwareHashRunsAndReducesLinkDistance) {
  ExperimentConfig config = lossless_config(200);
  config.assign_positions = true;
  const RunResult fair = run_experiment(config);
  config.hash = HashKind::kTopoAware;
  const RunResult topo = run_experiment(config);
  EXPECT_GE(topo.measurement.mean_completeness, 0.999);
  // Early phases stay within spatially tight grid boxes.
  EXPECT_LT(topo.mean_link_distance, fair.mean_link_distance);
}

TEST(Experiment, FieldWorkloadRequiresPositionsAndWorks) {
  ExperimentConfig config = lossless_config(80);
  config.workload = WorkloadKind::kField;
  config.assign_positions = true;
  const RunResult r = run_experiment(config);
  EXPECT_GE(r.measurement.mean_completeness, 0.999);
}

// The real-time deadline scales the horizon by a positive, finite factor;
// anything else was an undefined double -> integer cast.
TEST(Experiment, ScaledDeadlineRejectsDegenerateFactors) {
  const SimTime horizon = SimTime::millis(100);
  const SimTime floor = SimTime::seconds(5);
  EXPECT_EQ(runner::scaled_deadline(horizon, 100.0, floor),
            SimTime::seconds(10));
  EXPECT_EQ(runner::scaled_deadline(horizon, 2.0, floor), floor);
  for (const double bad : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(), 1e300}) {
    EXPECT_THROW((void)runner::scaled_deadline(horizon, bad, floor),
                 PreconditionError)
        << bad;
  }
}

TEST(Experiment, RejectsTinyGroups) {
  ExperimentConfig config;
  config.group_size = 1;
  EXPECT_THROW((void)run_experiment(config), PreconditionError);
}

TEST(Sweep, ProducesOnePointPerX) {
  ExperimentConfig base = lossless_config(40);
  const SweepResult result = run_sweep(
      base, "loss", {0.0, 0.2},
      [](ExperimentConfig& c, double x) { c.ucast_loss = x; }, 3);
  ASSERT_EQ(result.points.size(), 2u);
  EXPECT_EQ(result.x_label, "loss");
  EXPECT_EQ(result.points[0].incompleteness.n, 3u);
  EXPECT_DOUBLE_EQ(result.points[0].x, 0.0);
  EXPECT_LE(result.points[0].incompleteness.mean, 0.01);
  EXPECT_GE(result.points[1].incompleteness.mean,
            result.points[0].incompleteness.mean);
  EXPECT_EQ(result.points[0].audit_violations, 0u);
}

TEST(Sweep, SeedsDifferAcrossPointsAndRuns) {
  // If seeds were reused, messages at identical configs would be identical;
  // two runs at the same x must differ.
  ExperimentConfig base = lossless_config(40);
  base.ucast_loss = 0.3;
  const SweepResult result = run_sweep(
      base, "dummy", {1.0}, [](ExperimentConfig&, double) {}, 4);
  EXPECT_GT(result.points[0].incompleteness.stddev + 1e-12, 0.0);
  EXPECT_GT(result.points[0].messages.stddev, 0.0);
}

TEST(Sweep, SeedsAreClosedFormPerPointAndRun) {
  // Point p, run r must use seed base.seed + p*runs_per_point + r — i.e. a
  // point's seeds depend only on its index, not on how the sweep is
  // executed. A sweep over {x, x} must therefore give different summaries
  // per point (different seed blocks), while re-running a single-point
  // sweep whose base.seed is offset by runs_per_point reproduces point 1 of
  // the two-point sweep exactly.
  ExperimentConfig base = lossless_config(40);
  base.ucast_loss = 0.3;
  base.jobs = 1;
  const std::size_t runs = 3;
  const SweepResult both = run_sweep(
      base, "dup", {1.0, 1.0}, [](ExperimentConfig&, double) {}, runs);
  EXPECT_NE(both.points[0].messages.mean, both.points[1].messages.mean);

  ExperimentConfig offset = base;
  offset.seed = base.seed + runs;  // point 1's seed block
  const SweepResult second = run_sweep(
      offset, "dup", {1.0}, [](ExperimentConfig&, double) {}, runs);
  EXPECT_EQ(second.points[0].messages.mean, both.points[1].messages.mean);
  EXPECT_EQ(second.points[0].incompleteness.mean,
            both.points[1].incompleteness.mean);
}

void expect_same_stats(const SummaryStats& a, const SummaryStats& b) {
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.median, b.median);
  EXPECT_EQ(a.ci95_half_width, b.ci95_half_width);
}

TEST(Sweep, ParallelSweepIsBitwiseIdenticalToSerial) {
  ExperimentConfig base = lossless_config(40);
  base.ucast_loss = 0.3;
  base.crash_probability = 0.002;
  base.audit = true;

  base.jobs = 1;
  const SweepResult serial = run_sweep(
      base, "loss", {0.1, 0.3},
      [](ExperimentConfig& c, double x) { c.ucast_loss = x; }, 4);
  base.jobs = 4;
  const SweepResult parallel = run_sweep(
      base, "loss", {0.1, 0.3},
      [](ExperimentConfig& c, double x) { c.ucast_loss = x; }, 4);

  EXPECT_EQ(parallel.jobs_used, 4u);
  EXPECT_EQ(serial.jobs_used, 1u);
  ASSERT_EQ(parallel.points.size(), serial.points.size());
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    const SweepPoint& s = serial.points[i];
    const SweepPoint& p = parallel.points[i];
    EXPECT_EQ(p.x, s.x);
    expect_same_stats(p.incompleteness, s.incompleteness);
    EXPECT_EQ(p.incompleteness_geomean, s.incompleteness_geomean);
    expect_same_stats(p.completeness, s.completeness);
    expect_same_stats(p.messages, s.messages);
    expect_same_stats(p.rounds, s.rounds);
    expect_same_stats(p.abs_error, s.abs_error);
    EXPECT_EQ(p.mean_effective_b, s.mean_effective_b);
    EXPECT_EQ(p.audit_violations, s.audit_violations);
  }
}

TEST(Sweep, ParallelSweepPropagatesRunExceptions) {
  ExperimentConfig base = lossless_config(40);
  base.jobs = 4;
  EXPECT_THROW(
      (void)run_sweep(
          base, "n", {40, 1},  // group_size 1 is rejected by run_experiment
          [](ExperimentConfig& c, double x) {
            c.group_size = static_cast<std::size_t>(x);
          },
          2),
      PreconditionError);
}

TEST(Sweep, ReportsWallClockAndJobs) {
  ExperimentConfig base = lossless_config(40);
  base.jobs = 2;
  const SweepResult sweep = run_sweep(
      base, "x", {1.0}, [](ExperimentConfig&, double) {}, 2);
  EXPECT_EQ(sweep.jobs_used, 2u);
  EXPECT_GT(sweep.wall_seconds, 0.0);
}

TEST(Sweep, RejectsEmptyInput) {
  ExperimentConfig base;
  EXPECT_THROW((void)run_sweep(base, "x", {},
                               [](ExperimentConfig&, double) {}, 1),
               PreconditionError);
  EXPECT_THROW((void)run_sweep(base, "x", {1.0},
                               [](ExperimentConfig&, double) {}, 0),
               PreconditionError);
}

}  // namespace
}  // namespace gridbox::runner
