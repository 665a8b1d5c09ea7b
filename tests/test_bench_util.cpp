// bench_util.h: flag parsing, reproducibility columns, JSON table export.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/obs/json.h"
#include "src/runner/sweep.h"
#include "src/runner/table.h"

namespace gridbox {
namespace {

std::size_t parse_jobs(std::vector<std::string> args) {
  std::vector<char*> argv;
  static std::string arg0 = "bench";
  argv.push_back(arg0.data());
  for (std::string& a : args) argv.push_back(a.data());
  return bench::jobs_from_args(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchUtil, JobsFromArgsParsesValidValues) {
  EXPECT_EQ(parse_jobs({"--jobs", "4"}), 4u);
  EXPECT_EQ(parse_jobs({"--other", "x", "--jobs", "2"}), 2u);
  EXPECT_EQ(parse_jobs({}), 0u);  // absent: auto
}

TEST(BenchUtil, JobsFromArgsWarnsOnMalformedValue) {
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(parse_jobs({"--jobs", "8x"}), 0u);
  const std::string warning = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(warning.find("warning"), std::string::npos) << warning;
  EXPECT_NE(warning.find("8x"), std::string::npos) << warning;
}

TEST(BenchUtil, JobsFromArgsWarnsOnNegativeZeroAndMissing) {
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(parse_jobs({"--jobs", "-2"}), 0u);
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("warning"),
            std::string::npos);

  ::testing::internal::CaptureStderr();
  EXPECT_EQ(parse_jobs({"--jobs", "0"}), 0u);
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("warning"),
            std::string::npos);

  ::testing::internal::CaptureStderr();
  EXPECT_EQ(parse_jobs({"--jobs"}), 0u);  // trailing flag without a value
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("missing"),
            std::string::npos);
}

std::size_t parse_args(std::vector<std::string> args) {
  std::vector<char*> argv;
  static std::string arg0 = "bench";
  argv.push_back(arg0.data());
  for (std::string& a : args) argv.push_back(a.data());
  return bench::parse_args(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchUtil, ParseArgsTakesOnlyJobs) {
  EXPECT_EQ(parse_args({"--jobs", "3"}), 3u);
  EXPECT_EQ(parse_args({}), 0u);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(parse_args({"--jobs", "8x"}), 0u);  // still warn and fall back
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("8x"),
            std::string::npos);
}

TEST(BenchUtil, ParseArgsExitsOnUnknownArgumentsAndHelp) {
  EXPECT_EXIT((void)parse_args({"--bogus"}), ::testing::ExitedWithCode(2),
              "unknown argument '--bogus'");
  EXPECT_EXIT((void)parse_args({"--jobs", "2", "x"}),
              ::testing::ExitedWithCode(2), "usage: bench");
  EXPECT_EXIT((void)parse_args({"--help"}), ::testing::ExitedWithCode(0), "");
}

TEST(BenchUtil, ChaosIdNormalizesSpecs) {
  EXPECT_EQ(bench::chaos_id(""), "-");
  EXPECT_EQ(bench::chaos_id("loss 0.2\n"), "loss 0.2");
  EXPECT_EQ(bench::chaos_id("loss 0.2\ncrash M1 at=5ms\n"),
            "loss 0.2;crash M1 at=5ms");
}

TEST(BenchUtil, AppendReproAddsIdentificationColumns) {
  runner::Table table({"x", "y"});
  table.add_row({"1", "2"});
  table.add_row({"3", "4"});
  bench::append_repro(table, 42, 1, "loss 0.1\n");
  EXPECT_EQ(table.columns(), 5u);
  EXPECT_EQ(table.header()[2], "seed");
  EXPECT_EQ(table.header()[3], "jobs");
  EXPECT_EQ(table.header()[4], "chaos");
  EXPECT_EQ(table.row(0)[2], "42");
  EXPECT_EQ(table.row(0)[3], "1");
  EXPECT_EQ(table.row(1)[4], "loss 0.1");
}

TEST(BenchUtil, SweepTableCarriesSeedJobsChaosColumns) {
  runner::ExperimentConfig base;
  base.group_size = 16;
  base.ucast_loss = 0.0;
  base.crash_probability = 0.0;
  base.seed = 321;
  base.jobs = 1;
  const runner::SweepResult sweep = runner::run_sweep(
      base, "x", {0.0}, [](runner::ExperimentConfig&, double) {}, 2);
  const runner::Table table = bench::sweep_table(sweep);

  const auto& header = table.header();
  const auto find_column = [&](const std::string& name) {
    for (std::size_t i = 0; i < header.size(); ++i) {
      if (header[i] == name) return i;
    }
    return header.size();
  };
  const std::size_t seed_col = find_column("seed");
  const std::size_t jobs_col = find_column("jobs");
  const std::size_t chaos_col = find_column("chaos");
  ASSERT_LT(seed_col, header.size());
  ASSERT_LT(jobs_col, header.size());
  ASSERT_LT(chaos_col, header.size());
  EXPECT_EQ(table.row(0)[seed_col], "321");
  EXPECT_EQ(table.row(0)[jobs_col], "1");
  EXPECT_EQ(table.row(0)[chaos_col], "-");
}

TEST(BenchUtil, TableToJsonRoundTrips) {
  runner::Table table({"a", "b"});
  table.add_row({"1", "x,y"});
  const std::string json = bench::table_to_json(table, "demo");
  const obs::JsonValue root = obs::json_parse(json);
  EXPECT_EQ(root.string_or("schema", ""), "gridbox-bench-table/1");
  EXPECT_EQ(root.string_or("name", ""), "demo");
  const obs::JsonValue* columns = root.find("columns");
  const obs::JsonValue* rows = root.find("rows");
  ASSERT_NE(columns, nullptr);
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(columns->array.size(), 2u);
  EXPECT_EQ(columns->array[0].string, "a");
  ASSERT_EQ(rows->array.size(), 1u);
  EXPECT_EQ(rows->array[0].array[1].string, "x,y");
}

}  // namespace
}  // namespace gridbox
