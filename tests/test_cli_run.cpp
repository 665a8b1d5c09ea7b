// End-to-end run_cli coverage: exit codes and CSV side effects.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "src/runner/cli.h"

namespace gridbox::runner {
namespace {

TEST(CliRun, HelpReturnsZero) {
  CliOptions options;
  options.show_help = true;
  EXPECT_EQ(run_cli(options), 0);
}

TEST(CliRun, SmallRunSucceedsAndWritesCsv) {
  const std::string path = ::testing::TempDir() + "gridbox_cli_run.csv";
  std::remove(path.c_str());

  CliOptions options;
  options.config.group_size = 48;
  options.config.ucast_loss = 0.1;
  options.config.crash_probability = 0.0;
  options.config.audit = true;
  options.runs = 3;
  options.csv_path = path;
  EXPECT_EQ(run_cli(options), 0);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("completeness"), std::string::npos);
  int rows = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, 3);
  std::remove(path.c_str());
}

// The gridbox_sim --differential path end to end: all four protocols agree
// on a small lossy world, so the exit code is 0 (2 would be a divergence).
TEST(CliRun, DifferentialAgreesAndReturnsZero) {
  CliOptions options;
  options.config.group_size = 24;
  options.differential = true;
  EXPECT_EQ(run_cli(options), 0);
}

TEST(CliRun, UnwritableCsvPathFails) {
  CliOptions options;
  options.config.group_size = 16;
  options.config.crash_probability = 0.0;
  options.runs = 1;
  options.csv_path = "/nonexistent-dir/nope.csv";
  EXPECT_EQ(run_cli(options), 1);
}

TEST(CliRun, InvalidConfigurationReturnsError) {
  CliOptions options;
  options.config.group_size = 1;  // rejected by run_experiment
  EXPECT_EQ(run_cli(options), 1);
}

}  // namespace
}  // namespace gridbox::runner
