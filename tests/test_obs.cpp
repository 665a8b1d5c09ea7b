// Observability plumbing: JSON writer/parser, trace sink, golden JSONL
// trace, run manifest, and the BENCH file format + diff.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/ensure.h"
#include "src/obs/bench_io.h"
#include "src/obs/json.h"
#include "src/obs/manifest.h"
#include "src/obs/trace_sink.h"
#include "src/runner/cli.h"
#include "src/runner/config.h"
#include "src/runner/experiment.h"
#include "tests/golden.h"

namespace gridbox {
namespace {

using obs::BenchEntry;
using obs::BenchReport;
using obs::JsonValue;
using obs::JsonWriter;
using obs::TraceSink;
using runner::ExperimentConfig;
using testing::check_against_golden;

TEST(Json, WriterProducesCompactDeterministicText) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value("run");
  w.key("n").value(std::uint64_t{42});
  w.key("ok").value(true);
  w.key("xs").begin_array().value(1).value(2).end_array();
  w.end_object();
  EXPECT_EQ(w.take(), R"({"name":"run","n":42,"ok":true,"xs":[1,2]})");
}

TEST(Json, EscapesControlCharactersAndQuotes) {
  JsonWriter w;
  w.begin_object();
  w.key("s").value("a\"b\\c\nd");
  w.end_object();
  EXPECT_EQ(w.take(), "{\"s\":\"a\\\"b\\\\c\\nd\"}");
}

TEST(Json, ParseRoundTripsRepoArtifacts) {
  const std::string text =
      R"({"schema":"x/1","n":3,"pi":3.5,"flag":false,"nothing":null,)"
      R"("list":[1,"two",{"k":"v"}]})";
  const JsonValue root = obs::json_parse(text);
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.string_or("schema", ""), "x/1");
  EXPECT_EQ(root.number_or("n", 0), 3.0);
  EXPECT_EQ(root.number_or("pi", 0), 3.5);
  const JsonValue* list = root.find("list");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->array.size(), 3u);
  EXPECT_EQ(list->array[1].string, "two");
  EXPECT_EQ(list->array[2].string_or("k", ""), "v");
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW((void)obs::json_parse("{\"a\":}"), PreconditionError);
  EXPECT_THROW((void)obs::json_parse("[1,2"), PreconditionError);
  EXPECT_THROW((void)obs::json_parse(""), PreconditionError);
}

TEST(TraceSinkTest, LineFormatsAreIntegerOnlyAndStable) {
  std::ostringstream out;
  TraceSink sink(out);
  sink.message_event("send", SimTime::micros(12), MemberId{3}, MemberId{7},
                     21);
  sink.member_event("conclude", SimTime::micros(40), MemberId{5}, 2, 4,
                    "votes", "timeout");
  sink.member_event("crash", SimTime::micros(50), MemberId{9});
  EXPECT_EQ(out.str(),
            "{\"t\":12,\"ev\":\"send\",\"src\":3,\"dst\":7,\"bytes\":21}\n"
            "{\"t\":40,\"ev\":\"conclude\",\"m\":5,\"phase\":2,\"votes\":4,"
            "\"how\":\"timeout\"}\n"
            "{\"t\":50,\"ev\":\"crash\",\"m\":9}\n");
  EXPECT_EQ(sink.lines_written(), 3u);
}

TEST(TraceSinkTest, EveryLineParsesAsJson) {
  std::ostringstream out;
  TraceSink sink(out);
  sink.message_event("drop", SimTime::micros(1), MemberId{0}, MemberId{1}, 9);
  sink.member_event("round", SimTime::micros(2), MemberId{1}, 1, 2, "fanout");
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    EXPECT_NO_THROW((void)obs::json_parse(line)) << line;
  }
}

TEST(TracePaths, PerRunSuffixInsertsBeforeExtension) {
  EXPECT_EQ(runner::trace_path_for_run("trace.jsonl", 0, 1), "trace.jsonl");
  EXPECT_EQ(runner::trace_path_for_run("trace.jsonl", 2, 4),
            "trace-run2.jsonl");
  EXPECT_EQ(runner::trace_path_for_run("out/t", 1, 3), "out/t-run1");
  EXPECT_EQ(runner::trace_path_for_run("a.b/trace", 1, 2), "a.b/trace-run1");
  // A leading dot names a hidden file, not an extension.
  EXPECT_EQ(runner::trace_path_for_run(".trace", 1, 2), ".trace-run1");
  EXPECT_EQ(runner::trace_path_for_run("out/.trace", 1, 2), "out/.trace-run1");
  EXPECT_EQ(runner::trace_path_for_run("trace", 0, 2), "trace-run0");
}

// The golden JSONL trace: a canonical world's full event stream (transport
// + phase machine), byte-identical on every replay. Regenerate deliberately
// with GRIDBOX_REGEN_GOLDEN=1.
ExperimentConfig golden_config() {
  ExperimentConfig config;
  config.group_size = 32;
  config.gossip.k = 4;
  config.ucast_loss = 0.2;
  config.crash_probability = 0.0;
  config.seed = 7;
  return config;
}

std::string record_jsonl_trace() {
  std::ostringstream out;
  TraceSink sink(out);
  ExperimentConfig config = golden_config();
  config.trace_sink = &sink;
  (void)runner::run_experiment(config);
  return out.str();
}

TEST(GoldenJsonlTrace, CanonicalWorldReplaysByteIdentical) {
  const std::string got = record_jsonl_trace();
  ASSERT_FALSE(got.empty());
  check_against_golden("obs_trace_n32_k4_seed7.jsonl", got);
}

TEST(GoldenJsonlTrace, InProcessReplayIsDeterministic) {
  EXPECT_EQ(record_jsonl_trace(), record_jsonl_trace());
}

TEST(Manifest, Fnv1aMatchesKnownVectors) {
  EXPECT_EQ(obs::fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(obs::fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
}

TEST(Manifest, JsonCarriesConfigFingerprintAndRuns) {
  obs::RunManifest manifest;
  manifest.tool = "test";
  manifest.git_rev = "deadbeef";
  manifest.config_text = "proto=hier-gossip n=8";
  manifest.base_seed = 42;
  manifest.jobs = 4;
  obs::RunManifest::RunEntry entry;
  entry.seed = 42;
  entry.mean_completeness = 0.5;
  entry.network_messages = 10;
  manifest.runs.push_back(entry);

  const JsonValue root = obs::json_parse(manifest.to_json());
  EXPECT_EQ(root.string_or("schema", ""), obs::RunManifest::kSchema);
  EXPECT_EQ(root.string_or("config", ""), manifest.config_text);
  // The hash field is the FNV-1a of the config text, as fixed-width hex.
  char want_hash[24];
  std::snprintf(want_hash, sizeof(want_hash), "%016llx",
                static_cast<unsigned long long>(
                    obs::fnv1a64(manifest.config_text)));
  EXPECT_EQ(root.string_or("config_hash", ""), want_hash);
  const JsonValue* runs = root.find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->array.size(), 1u);
  EXPECT_EQ(runs->array[0].number_or("seed", 0), 42.0);
}

TEST(CanonicalConfig, DistinguishesKnobsAndIgnoresInstrumentation) {
  ExperimentConfig a;
  ExperimentConfig b = a;
  EXPECT_EQ(runner::config_canonical_text(a), runner::config_canonical_text(b));

  b.collect_metrics = true;
  b.profile = true;
  b.jobs = 16;
  b.seed = 999;  // seed is per-run identification, not a config knob
  EXPECT_EQ(runner::config_canonical_text(a), runner::config_canonical_text(b));

  b.gossip.fanout_m = 3;
  EXPECT_NE(runner::config_canonical_text(a), runner::config_canonical_text(b));
}

BenchReport sample_report() {
  BenchReport report;
  report.suite = "micro_core";
  report.git_rev = "abc123";
  report.repeats = 3;
  report.jobs = 2;
  BenchEntry e;
  e.name = "hier_n200";
  e.wall_s = 0.5;
  e.events_per_s = 1000.0;
  e.msgs_per_s = 500.0;
  e.sim_events = 500;
  e.network_messages = 250;
  e.peak_rss_mb = 32.0;
  report.entries.push_back(e);
  return report;
}

TEST(BenchIo, ReportRoundTripsThroughJson) {
  const BenchReport report = sample_report();
  const BenchReport parsed = BenchReport::parse(report.to_json());
  EXPECT_EQ(parsed.suite, report.suite);
  EXPECT_EQ(parsed.git_rev, report.git_rev);
  EXPECT_EQ(parsed.repeats, report.repeats);
  ASSERT_EQ(parsed.entries.size(), 1u);
  EXPECT_EQ(parsed.entries[0].name, "hier_n200");
  EXPECT_EQ(parsed.entries[0].wall_s, 0.5);
  EXPECT_EQ(parsed.entries[0].sim_events, 500u);
  // Round trip is byte-exact: parse(to_json()).to_json() == to_json().
  EXPECT_EQ(parsed.to_json(), report.to_json());
}

TEST(BenchIo, ParseRejectsSchemaMismatch) {
  EXPECT_THROW((void)BenchReport::parse(R"({"schema":"other/9"})"),
               PreconditionError);
  EXPECT_THROW((void)BenchReport::parse("not json"),
               PreconditionError);
}

// A failed check names its file relative to the source root, for both
// message overloads, so error text is the same in every checkout.
TEST(Ensure, FailedCheckNamesItsFileRelativeToTheSourceRoot) {
  std::string root = GRIDBOX_TEST_DATA_DIR;
  root.erase(root.size() - std::string("tests").size());
  ASSERT_FALSE(root.empty());
  for (const char* text : {"[]", R"({"schema":"other/9"})"}) {
    try {
      (void)BenchReport::parse(text);
      ADD_FAILURE() << "parse accepted " << text;
    } catch (const PreconditionError& e) {
      const std::string what = e.what();
      EXPECT_TRUE(what.starts_with("src/obs/bench_io.cpp:")) << what;
      EXPECT_EQ(what.find(root), std::string::npos) << what;
    }
  }
}

TEST(BenchIo, DiffFlagsOnlyRegressionsPastThreshold) {
  const BenchReport old_report = sample_report();
  BenchReport new_report = sample_report();
  new_report.entries[0].wall_s = 0.55;  // +10%: inside a 20% threshold
  EXPECT_TRUE(obs::bench_diff({old_report}, {new_report}, 0.2).ok());

  new_report.entries[0].wall_s = 0.65;  // +30%: regression
  const obs::BenchDiffReport diff =
      obs::bench_diff({old_report}, {new_report}, 0.2);
  EXPECT_FALSE(diff.ok());
  EXPECT_EQ(diff.regressions, 1u);
  EXPECT_NEAR(diff.worst_ratio, 1.3, 1e-9);
  EXPECT_NE(diff.render().find("REGRESSED"), std::string::npos);
}

TEST(BenchIo, DiffReportsThroughputDeltas) {
  const BenchReport old_report = sample_report();
  BenchReport new_report = sample_report();
  new_report.entries[0].events_per_s = 1250.0;  // +25%
  new_report.entries[0].msgs_per_s = 400.0;     // -20%
  const obs::BenchDiffReport diff =
      obs::bench_diff({old_report}, {new_report}, 0.2);
  ASSERT_EQ(diff.rows.size(), 1u);
  EXPECT_EQ(diff.rows[0].old_events_per_s, 1000.0);
  EXPECT_EQ(diff.rows[0].new_events_per_s, 1250.0);
  EXPECT_NEAR(diff.rows[0].events_ratio, 1.25, 1e-9);
  EXPECT_NEAR(diff.rows[0].msgs_ratio, 0.8, 1e-9);
  // Throughput changes inform but never gate: only wall time regresses.
  EXPECT_TRUE(diff.ok());
  const std::string table = diff.render();
  EXPECT_NE(table.find("+25.0%"), std::string::npos);
  EXPECT_NE(table.find("-20.0%"), std::string::npos);
}

TEST(BenchIo, DiffTracksDisappearedAndNewCases) {
  const BenchReport old_report = sample_report();
  BenchReport new_report = sample_report();
  new_report.entries[0].name = "renamed_case";
  const obs::BenchDiffReport diff =
      obs::bench_diff({old_report}, {new_report}, 0.2);
  // Nothing regressed, but a case on one side only was never compared.
  EXPECT_EQ(diff.regressions, 0u);
  EXPECT_FALSE(diff.ok());
  ASSERT_EQ(diff.only_in_old.size(), 1u);
  ASSERT_EQ(diff.only_in_new.size(), 1u);
  EXPECT_EQ(diff.only_in_old[0], "hier_n200");
  EXPECT_EQ(diff.only_in_new[0], "renamed_case");
  EXPECT_NE(diff.render().find("hier_n200: only in old reports"),
            std::string::npos);
}

TEST(BenchIo, SpeedupsNeverFlagRegression) {
  const BenchReport old_report = sample_report();
  BenchReport new_report = sample_report();
  new_report.entries[0].wall_s = 0.1;  // 5x faster
  EXPECT_TRUE(obs::bench_diff({old_report}, {new_report}, 0.0).ok());
}

BenchReport sample_with_wall(double wall_s) {
  BenchReport report = sample_report();
  report.entries[0].wall_s = wall_s;
  return report;
}

TEST(BenchIo, DiffScoresEachSideByItsMinimumWall) {
  const std::vector<BenchReport> old_reports = {
      sample_with_wall(0.9), sample_with_wall(0.5), sample_with_wall(0.7)};
  // min 0.58 vs min 0.5: +16%, inside 20%, though every new run is slower
  // than the old minimum and one old run is slower than both.
  obs::BenchDiffReport diff = obs::bench_diff(
      old_reports, {sample_with_wall(0.6), sample_with_wall(0.58)}, 0.2);
  ASSERT_EQ(diff.rows.size(), 1u);
  EXPECT_EQ(diff.rows[0].old_wall_s, 0.5);
  EXPECT_EQ(diff.rows[0].new_wall_s, 0.58);
  EXPECT_TRUE(diff.ok());

  diff = obs::bench_diff(
      old_reports, {sample_with_wall(0.65), sample_with_wall(0.7)}, 0.2);
  EXPECT_NEAR(diff.worst_ratio, 1.3, 1e-9);
  EXPECT_FALSE(diff.ok());
}

TEST(BenchIo, DiffFailsWhenCountsDisagreeWithinASide) {
  BenchReport odd = sample_report();
  odd.entries[0].sim_events = 501;
  obs::BenchDiffReport diff =
      obs::bench_diff({sample_report()}, {sample_report(), odd}, 0.2);
  EXPECT_EQ(diff.regressions, 0u);
  EXPECT_FALSE(diff.ok());
  ASSERT_EQ(diff.inconsistent.size(), 1u);
  EXPECT_EQ(diff.inconsistent[0],
            "new hier_n200: counts differ between reports");

  // A case missing from one report of a side is the same failure.
  BenchReport empty = sample_report();
  empty.entries.clear();
  diff = obs::bench_diff({sample_report(), empty}, {sample_report()}, 0.2);
  EXPECT_FALSE(diff.ok());
  ASSERT_EQ(diff.inconsistent.size(), 1u);
  EXPECT_EQ(diff.inconsistent[0], "old hier_n200: in 1 of 2 reports");
}

TEST(BenchIo, WorkChangedBetweenSidesPrintsButDoesNotFail) {
  BenchReport changed = sample_report();
  changed.entries[0].sim_events = 600;
  const obs::BenchDiffReport diff =
      obs::bench_diff({sample_report()}, {changed, changed}, 0.2);
  EXPECT_TRUE(diff.ok());
  ASSERT_EQ(diff.rows.size(), 1u);
  EXPECT_TRUE(diff.rows[0].work_changed());
  EXPECT_NE(diff.render().find("work changed (events 500->600, msgs 250->250)"),
            std::string::npos);
}

TEST(BenchIo, DiffRejectsMixedSuites) {
  BenchReport other = sample_report();
  other.suite = "service";
  EXPECT_THROW((void)obs::bench_diff({sample_report()}, {other}, 0.2),
               PreconditionError);
  EXPECT_THROW((void)obs::bench_diff({}, {sample_report()}, 0.2),
               PreconditionError);
}

TEST(BenchIo, PeakRssIsNonZeroOnSupportedPlatforms) {
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_GT(obs::peak_rss_bytes(), 0u);
#else
  GTEST_SKIP() << "no getrusage on this platform";
#endif
}

}  // namespace
}  // namespace gridbox
