#include "src/runner/cli.h"

#include <gtest/gtest.h>

#include <string>

#include "src/protocols/baseline/committee.h"

namespace gridbox::runner {
namespace {

CliOptions must_parse(const std::vector<std::string>& args) {
  const CliParseResult result = parse_cli(args);
  EXPECT_TRUE(result.options.has_value()) << result.error;
  return result.options.value_or(CliOptions{});
}

std::string must_fail(const std::vector<std::string>& args) {
  const CliParseResult result = parse_cli(args);
  EXPECT_FALSE(result.options.has_value());
  return result.error;
}

TEST(Cli, EmptyArgsGiveDefaults) {
  const CliOptions o = must_parse({});
  EXPECT_EQ(o.config.group_size, 200u);
  EXPECT_EQ(o.config.protocol, ProtocolKind::kHierGossip);
  EXPECT_DOUBLE_EQ(o.config.ucast_loss, 0.25);
  EXPECT_EQ(o.runs, 1u);
  EXPECT_FALSE(o.show_help);
}

TEST(Cli, HelpShortCircuits) {
  EXPECT_TRUE(must_parse({"--help"}).show_help);
  EXPECT_TRUE(must_parse({"-h"}).show_help);
  // Even with garbage afterwards.
  EXPECT_TRUE(must_parse({"--help", "--bogus"}).show_help);
}

TEST(Cli, ParsesNumericFlags) {
  const CliOptions o = must_parse({"--n", "512", "--k", "8", "--m", "4", "--c",
                                   "2.5", "--loss", "0.4", "--pf", "0.01",
                                   "--seed", "99", "--runs", "7"});
  EXPECT_EQ(o.config.group_size, 512u);
  EXPECT_EQ(o.config.gossip.k, 8u);
  EXPECT_EQ(o.config.hierarchy_k, 8u);
  EXPECT_EQ(o.config.gossip.fanout_m, 4u);
  EXPECT_DOUBLE_EQ(o.config.gossip.round_multiplier_c, 2.5);
  EXPECT_DOUBLE_EQ(o.config.ucast_loss, 0.4);
  EXPECT_DOUBLE_EQ(o.config.crash_probability, 0.01);
  EXPECT_EQ(o.config.seed, 99u);
  EXPECT_EQ(o.runs, 7u);
}

TEST(Cli, ParsesJobs) {
  EXPECT_EQ(must_parse({}).config.jobs, 0u);  // 0 = auto
  EXPECT_EQ(must_parse({"--jobs", "4"}).config.jobs, 4u);
  EXPECT_NE(must_fail({"--jobs", "0"}).find("at least 1"), std::string::npos);
  EXPECT_NE(must_fail({"--jobs", "nope"}).find("integer"), std::string::npos);
}

TEST(Cli, ParsesEveryProtocolName) {
  EXPECT_EQ(must_parse({"--protocol", "hier-gossip"}).config.protocol,
            ProtocolKind::kHierGossip);
  EXPECT_EQ(must_parse({"--protocol", "all-to-all"}).config.protocol,
            ProtocolKind::kFullyDistributed);
  EXPECT_EQ(must_parse({"--protocol", "centralized"}).config.protocol,
            ProtocolKind::kCentralized);
  EXPECT_EQ(must_parse({"--protocol", "leader"}).config.protocol,
            ProtocolKind::kLeaderElection);
  EXPECT_EQ(must_parse({"--protocol", "committee"}).config.protocol,
            ProtocolKind::kCommittee);
}

TEST(Cli, ParsesEveryAggregateName) {
  EXPECT_EQ(must_parse({"--aggregate", "min"}).config.aggregate,
            agg::AggregateKind::kMin);
  EXPECT_EQ(must_parse({"--aggregate", "stddev"}).config.aggregate,
            agg::AggregateKind::kStdDev);
}

TEST(Cli, TopoHashImpliesPositions) {
  const CliOptions o = must_parse({"--hash", "topo"});
  EXPECT_EQ(o.config.hash, HashKind::kTopoAware);
  EXPECT_TRUE(o.config.assign_positions);
}

TEST(Cli, FieldWorkloadImpliesPositions) {
  const CliOptions o = must_parse({"--workload", "field"});
  EXPECT_EQ(o.config.workload, WorkloadKind::kField);
  EXPECT_TRUE(o.config.assign_positions);
}

TEST(Cli, BooleanFlags) {
  const CliOptions o =
      must_parse({"--audit", "--no-early-bump", "--no-linger"});
  EXPECT_TRUE(o.config.audit);
  EXPECT_FALSE(o.config.gossip.early_bump);
  EXPECT_FALSE(o.config.gossip.final_phase_linger);
}

TEST(Cli, ExchangeModes) {
  EXPECT_EQ(must_parse({"--exchange", "single"}).config.gossip.exchange_mode,
            protocols::gossip::ExchangeMode::kSingleValue);
  EXPECT_EQ(must_parse({"--exchange", "full"}).config.gossip.exchange_mode,
            protocols::gossip::ExchangeMode::kFullState);
}

TEST(Cli, RejectsUnknownFlag) {
  EXPECT_NE(must_fail({"--frobnicate"}).find("unknown flag"),
            std::string::npos);
}

TEST(Cli, RejectsMissingValue) {
  EXPECT_NE(must_fail({"--n"}).find("missing value"), std::string::npos);
}

TEST(Cli, RejectsNonNumericValues) {
  EXPECT_NE(must_fail({"--n", "many"}).find("integer"), std::string::npos);
  EXPECT_NE(must_fail({"--loss", "lots"}).find("number"), std::string::npos);
  EXPECT_NE(must_fail({"--n", "12x"}).find("integer"), std::string::npos);
}

// inf/nan parse as doubles but mean nothing as flag values; downstream they
// were undefined double -> integer casts (--c inf ran with a garbage round
// count and exited 0).
TEST(Cli, RejectsNonFiniteNumbers) {
  for (const char* bad : {"inf", "-inf", "nan", "INF"}) {
    EXPECT_NE(must_fail({"--c", bad}).find("finite"), std::string::npos)
        << bad;
    EXPECT_NE(must_fail({"--loss", bad}).find("finite"), std::string::npos)
        << bad;
  }
  EXPECT_NE(must_fail({"--c", "1e999"}).find("not a number"),
            std::string::npos);  // overflows the double range
  EXPECT_DOUBLE_EQ(must_parse({"--c", "1e3"}).config.gossip.round_multiplier_c,
                   1000.0);
}

TEST(Cli, RejectsNegativeAndZeroWhereInvalid) {
  EXPECT_FALSE(parse_cli({"--runs", "0"}).options.has_value());
  EXPECT_FALSE(parse_cli({"--n", "-5"}).options.has_value());
}

TEST(Cli, RejectsUnknownEnumValues) {
  EXPECT_NE(must_fail({"--protocol", "paxos"}).find("unknown"),
            std::string::npos);
  EXPECT_NE(must_fail({"--aggregate", "median"}).find("unknown"),
            std::string::npos);
  EXPECT_NE(must_fail({"--hash", "sha256"}).find("unknown"),
            std::string::npos);
  EXPECT_NE(must_fail({"--workload", "spiky"}).find("unknown"),
            std::string::npos);
  EXPECT_NE(must_fail({"--exchange", "half"}).find("unknown"),
            std::string::npos);
}

TEST(Cli, CsvPathIsCaptured) {
  EXPECT_EQ(must_parse({"--csv", "/tmp/out.csv"}).csv_path, "/tmp/out.csv");
}

TEST(Cli, RejectsOutputFlagsTheModeNeverWrites) {
  struct Case {
    std::vector<std::string> output;
    bool service_writes;  ///< --instances honors it (lineage, csv)
  };
  const Case cases[] = {
      {{"--profile"}, false},
      {{"--metrics"}, false},
      {{"--trace-out", "t.jsonl"}, false},
      {{"--run-manifest", "run.json"}, false},
      {{"--curves-out", "c.json"}, false},
      {{"--flight-recorder", "f.txt"}, false},
      {{"--lineage", "l.json"}, true},
      {{"--csv", "o.csv"}, true},
  };
  for (const Case& c : cases) {
    for (const std::vector<std::string>& mode :
         {std::vector<std::string>{"--instances", "2"},
          std::vector<std::string>{"--differential"}}) {
      std::vector<std::string> args = mode;
      args.insert(args.end(), c.output.begin(), c.output.end());
      const CliParseResult result = parse_cli(args);
      if (mode[0] == "--instances" && c.service_writes) {
        EXPECT_TRUE(result.options.has_value())
            << c.output[0] << ": " << result.error;
        continue;
      }
      ASSERT_FALSE(result.options.has_value()) << mode[0] << " " << c.output[0];
      EXPECT_NE(result.error.find(c.output[0]), std::string::npos)
          << result.error;
      EXPECT_NE(result.error.find(mode[0]), std::string::npos) << result.error;
    }
    // A plain run writes every one of them.
    EXPECT_TRUE(parse_cli(c.output).options.has_value()) << c.output[0];
  }
}

TEST(Cli, UsageMentionsEveryFlag) {
  const std::string usage = usage_text();
  for (const char* flag :
       {"--protocol", "--n", "--k", "--m", "--c", "--rounds-per-phase",
        "--exchange", "--no-early-bump", "--no-linger", "--committee-size",
        "--view-coverage", "--hash", "--loss", "--partition-loss", "--pf",
        "--workload", "--aggregate", "--audit", "--seed", "--runs", "--jobs",
        "--csv", "--metrics", "--profile", "--trace-out", "--run-manifest",
        "--lineage", "--curves-out", "--flight-recorder", "--help"}) {
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
  }
}

// The help text states the committee size a bare --protocol committee runs.
TEST(Cli, UsageNamesTheRealCommitteeSizeDefault) {
  const std::string want =
      "(default " +
      std::to_string(protocols::baseline::CommitteeConfig{}.committee_size);
  const std::string usage = usage_text();
  const std::size_t flag = usage.find("--committee-size");
  ASSERT_NE(flag, std::string::npos);
  EXPECT_EQ(usage.find(want, flag), usage.find("(default", flag)) << want;
}

// gridbox_node's parser shares gridbox_sim's flag-value validation.

NodeCliOptions must_parse_node(const std::vector<std::string>& args) {
  const NodeCliParseResult result = parse_node_cli(args);
  EXPECT_TRUE(result.options.has_value()) << result.error;
  return result.options.value_or(NodeCliOptions{});
}

std::string must_fail_node(const std::vector<std::string>& args) {
  const NodeCliParseResult result = parse_node_cli(args);
  EXPECT_FALSE(result.options.has_value());
  return result.error;
}

TEST(NodeCli, DefaultsAreCrashFreeAndAudited) {
  const NodeCliOptions o = must_parse_node({});
  EXPECT_EQ(o.udp.experiment.group_size, 200u);
  EXPECT_DOUBLE_EQ(o.udp.experiment.crash_probability, 0.0);
  EXPECT_TRUE(o.udp.experiment.audit);
  EXPECT_EQ(o.udp.port_base, 38000u);
  EXPECT_EQ(o.udp.shards, 0u);
  EXPECT_EQ(o.instances, 0u);
  EXPECT_FALSE(o.differential);
  EXPECT_TRUE(must_parse_node({"--help", "--bogus"}).show_help);
}

TEST(NodeCli, AcceptsEveryAggregateGridboxSimAccepts) {
  EXPECT_EQ(must_parse_node({"--aggregate", "stddev"}).udp.experiment.aggregate,
            agg::AggregateKind::kStdDev);
  EXPECT_EQ(must_parse_node({"--aggregate", "range"}).udp.experiment.aggregate,
            agg::AggregateKind::kRange);
  EXPECT_NE(must_fail_node({"--aggregate", "median"}).find("unknown"),
            std::string::npos);
}

TEST(NodeCli, RejectsNegativeCounts) {
  EXPECT_NE(must_fail_node({"--n", "-1"}).find("non-negative integer"),
            std::string::npos);
  EXPECT_NE(must_fail_node({"--threads", "-1"}).find("non-negative integer"),
            std::string::npos);
  EXPECT_NE(must_fail_node({"--instances", "-3"}).find("non-negative"),
            std::string::npos);
  EXPECT_NE(must_fail_node({"--n", "12x"}).find("integer"), std::string::npos);
}

TEST(NodeCli, RejectsPortsOutsideTheUdpRange) {
  EXPECT_NE(must_fail_node({"--port-base", "70000"}).find("65535"),
            std::string::npos);
  EXPECT_NE(must_fail_node({"--telemetry-port", "65536"}).find("65535"),
            std::string::npos);
  EXPECT_EQ(must_parse_node({"--port-base", "65535"}).udp.port_base, 65535u);
}

TEST(NodeCli, RejectsZeroWhereAPositiveValueIsRequired) {
  EXPECT_FALSE(parse_node_cli({"--round-us", "0"}).options.has_value());
  EXPECT_FALSE(parse_node_cli({"--in-flight", "0"}).options.has_value());
  EXPECT_FALSE(
      parse_node_cli({"--epoch-interval-us", "0"}).options.has_value());
}

TEST(NodeCli, RejectsNonPositiveOrNonFiniteDeadlineFactors) {
  for (const char* bad : {"-1", "0", "nan", "inf"}) {
    EXPECT_FALSE(
        parse_node_cli({"--deadline-factor", bad}).options.has_value())
        << bad;
  }
  EXPECT_NE(must_fail_node({"--deadline-factor", "0"}).find("positive"),
            std::string::npos);
  EXPECT_DOUBLE_EQ(
      must_parse_node({"--deadline-factor", "0.5"}).udp.deadline_factor, 0.5);
}

TEST(NodeCli, ParsesRunServiceAndHarnessFlags) {
  const NodeCliOptions o = must_parse_node(
      {"--n", "64", "--protocol", "committee", "--seed", "9", "--threads",
       "2", "--loss", "0.1", "--round-us", "5000", "--deadline-factor", "4",
       "--instances", "3", "--epoch-interval-us", "20000", "--in-flight",
       "2", "--telemetry-interval-us", "50000", "--differential",
       "--report-dir", "out"});
  EXPECT_EQ(o.udp.experiment.group_size, 64u);
  EXPECT_EQ(o.udp.experiment.protocol, ProtocolKind::kCommittee);
  EXPECT_EQ(o.udp.experiment.seed, 9u);
  EXPECT_EQ(o.udp.shards, 2u);
  EXPECT_DOUBLE_EQ(o.udp.experiment.ucast_loss, 0.1);
  EXPECT_EQ(o.udp.experiment.gossip.round_duration, SimTime::micros(5000));
  EXPECT_DOUBLE_EQ(o.udp.deadline_factor, 4.0);
  EXPECT_EQ(o.instances, 3u);
  EXPECT_EQ(o.epoch_interval, SimTime::micros(20000));
  EXPECT_EQ(o.in_flight, 2u);
  EXPECT_TRUE(o.udp.experiment.telemetry.enabled);
  EXPECT_TRUE(o.differential);
  EXPECT_EQ(o.report_dir, "out");
}

TEST(NodeCli, ValidatesChaosSpecsAtTheCommandLine) {
  EXPECT_EQ(must_parse_node({"--chaos", "loss 0.05"}).udp.experiment.chaos_spec,
            "loss 0.05");
  EXPECT_NE(must_fail_node({"--chaos", "frobnicate 3"}).find("--chaos"),
            std::string::npos);
  EXPECT_EQ(must_parse_node({"--chaos", "loss 0.05;crash M3 at=10ms"})
                .udp.experiment.chaos_spec,
            "loss 0.05\ncrash M3 at=10ms");
  EXPECT_NE(must_fail_node({"--chaos", "/nonexistent/spec"}).find("--chaos"),
            std::string::npos);
  EXPECT_NE(must_fail_node({"--frobnicate"}).find("unknown flag"),
            std::string::npos);
}

}  // namespace
}  // namespace gridbox::runner
