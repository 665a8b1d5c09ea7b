// Causal vote lineage, empirical epidemic curves, and the flight recorder.
//
// The headline guarantee: the lineage tracker reconstructs every member's
// dissemination tree from knowledge-gain events alone, and the completeness
// it derives equals the protocol's own measurement *exactly* (basis-point
// equality, same rounding), on all protocols, under chaos. Lineage is an
// independent accounting next to the protocol's own measurement — any
// divergence is a protocol or instrumentation bug, surfaced via errors().
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "src/obs/curves.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/json.h"
#include "src/obs/lineage.h"
#include "src/obs/profile.h"
#include "src/protocols/gossip/trace.h"
#include "src/runner/config.h"
#include "src/runner/experiment.h"

namespace gridbox {
namespace {

using obs::CurveRecorder;
using obs::FlightRecorder;
using obs::JsonValue;
using obs::LineageTracker;
using runner::ExperimentConfig;
using runner::ProtocolKind;
using runner::RunResult;

// Same adversity as test_metrics' reconciliation worlds: static loss plus a
// chaos script with extra loss, duplication, jitter, and a scripted crash.
ExperimentConfig chaos_world(ProtocolKind protocol) {
  ExperimentConfig config;
  config.protocol = protocol;
  config.group_size = 40;
  config.ucast_loss = 0.1;
  config.crash_probability = 0.0;
  config.audit = true;
  config.chaos_spec =
      "loss 0.2\n"
      "dup p=0.15 extra=1 spread=400us\n"
      "jitter p=0.2 0us..1ms\n"
      "crash M5 at=30ms\n";
  config.seed = 1234;
  return config;
}

void expect_lineage_explains_run(ExperimentConfig config) {
  LineageTracker::Options lopt;
  lopt.group_size = config.group_size;
  LineageTracker lineage(lopt);
  config.lineage = &lineage;
  const RunResult result = runner::run_experiment(config);

  ASSERT_TRUE(lineage.errors().empty())
      << lineage.errors().size() << " accounting errors, first: "
      << lineage.errors().front();
  ASSERT_FALSE(lineage.nodes().empty());

  // Bit-exact: the lineage-derived mean completeness reproduces
  // measure_run's arithmetic, so the basis-point gauges must be equal.
  const auto want_bp = static_cast<std::uint64_t>(
      result.measurement.mean_completeness * 10'000.0 + 0.5);
  EXPECT_EQ(lineage.completeness_bp(), want_bp);
  EXPECT_EQ(lineage.finished_count(), result.measurement.finished_nodes);
}

TEST(Lineage, ExplainsHierGossipUnderChaos) {
  expect_lineage_explains_run(chaos_world(ProtocolKind::kHierGossip));
}

TEST(Lineage, ExplainsFullyDistributedUnderChaos) {
  expect_lineage_explains_run(chaos_world(ProtocolKind::kFullyDistributed));
}

TEST(Lineage, ExplainsCentralizedUnderChaos) {
  expect_lineage_explains_run(chaos_world(ProtocolKind::kCentralized));
}

TEST(Lineage, ExplainsLeaderElectionUnderChaos) {
  expect_lineage_explains_run(chaos_world(ProtocolKind::kLeaderElection));
}

TEST(Lineage, ExplainsCommitteeUnderChaos) {
  ExperimentConfig config = chaos_world(ProtocolKind::kCommittee);
  config.committee.committee_size = 3;
  expect_lineage_explains_run(config);
}

TEST(Lineage, ExplainsLossyCrashyHierWorld) {
  ExperimentConfig config;
  config.group_size = 64;
  config.ucast_loss = 0.25;
  config.crash_probability = 0.002;
  config.audit = true;
  config.seed = 99;
  expect_lineage_explains_run(config);
}

TEST(Lineage, JsonDocumentCarriesForestAndAddresses) {
  ExperimentConfig config = chaos_world(ProtocolKind::kHierGossip);
  LineageTracker::Options lopt;
  lopt.group_size = config.group_size;
  LineageTracker lineage(lopt);
  config.lineage = &lineage;
  (void)runner::run_experiment(config);

  const JsonValue root = obs::json_parse(lineage.to_json());
  EXPECT_EQ(root.string_or("schema", ""), "gridbox-lineage/1");
  EXPECT_EQ(root.number_or("group_size", 0), 40.0);
  EXPECT_GT(root.number_or("num_phases", 0), 0.0);
  const JsonValue* members = root.find("members");
  ASSERT_NE(members, nullptr);
  ASSERT_EQ(members->array.size(), 40u);
  const JsonValue* addr = members->array[0].find("addr");
  ASSERT_NE(addr, nullptr);
  EXPECT_TRUE(addr->is_array());
  const JsonValue* nodes = root.find("nodes");
  ASSERT_NE(nodes, nullptr);
  EXPECT_FALSE(nodes->array.empty());
  const JsonValue* errors = root.find("errors");
  ASSERT_NE(errors, nullptr);
  EXPECT_TRUE(errors->array.empty());
}

// ---------------------------------------------------------------------------
// Epidemic curves.

ExperimentConfig curves_config() {
  ExperimentConfig config;
  config.group_size = 32;
  config.gossip.k = 4;
  config.ucast_loss = 0.2;
  config.crash_probability = 0.0;
  config.seed = 7;
  return config;
}

std::string record_curves_json(const ExperimentConfig& base) {
  ExperimentConfig config = base;
  CurveRecorder::Options copt;
  copt.round_us = static_cast<std::uint64_t>(config.round_duration().ticks());
  CurveRecorder curves(copt);
  config.curves = &curves;
  (void)runner::run_experiment(config);
  return curves.to_json();
}

void check_against_golden(const std::string& name, const std::string& got) {
  const std::string path =
      std::string(GRIDBOX_TEST_DATA_DIR) + "/golden/" + name;
  if (std::getenv("GRIDBOX_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << got;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing fixture " << path
                         << " (regenerate with GRIDBOX_REGEN_GOLDEN=1)";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str())
      << name
      << ": curves drifted from the golden fixture. If the change is "
         "intentional, regenerate with GRIDBOX_REGEN_GOLDEN=1.";
}

// The canonical hier-gossip world's curve document is byte-stable: integer
// basis points end to end, no floating-point text.
TEST(Curves, GoldenDocumentReplaysByteIdentical) {
  const std::string got = record_curves_json(curves_config());
  ASSERT_FALSE(got.empty());
  check_against_golden("curves_n32_k4_seed7.json", got);
}

TEST(Curves, InProcessReplayIsDeterministic) {
  EXPECT_EQ(record_curves_json(curves_config()),
            record_curves_json(curves_config()));
}

TEST(Curves, CarriesEmpiricalSeriesAndAnalyticModel) {
  const JsonValue root = obs::json_parse(record_curves_json(curves_config()));
  EXPECT_EQ(root.string_or("schema", ""), "gridbox-curves/1");
  EXPECT_EQ(root.number_or("group_size", 0), 32.0);
  EXPECT_GT(root.number_or("total_gains", 0), 0.0);

  const JsonValue* phases = root.find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_GE(phases->array.size(), 2u);
  for (const JsonValue& phase : phases->array) {
    EXPECT_GT(phase.number_or("denominator", 0), 0.0);
    const JsonValue* samples = phase.find("samples");
    ASSERT_NE(samples, nullptr);
    // Fractions are cumulative, integral, and saturate at 100%.
    double last = -1.0;
    for (const JsonValue& s : samples->array) {
      const double bp = s.number_or("frac_bp", -1);
      EXPECT_GE(bp, last);
      EXPECT_LE(bp, 10'000.0);
      last = bp;
    }
    // Hier-gossip: every phase also carries the Bailey model overlay.
    const JsonValue* model = phase.find("model");
    ASSERT_NE(model, nullptr);
    EXPECT_FALSE(model->array.empty());
  }
  const JsonValue* analytic = root.find("analytic");
  ASSERT_NE(analytic, nullptr);
  EXPECT_GT(analytic->number_or("b_milli", 0), 0.0);
  EXPECT_GT(analytic->number_or("protocol_bound_bp", 0), 0.0);
}

TEST(Curves, BaselineDocumentsHaveNoAnalyticOverlay) {
  ExperimentConfig config = curves_config();
  config.protocol = ProtocolKind::kFullyDistributed;
  const JsonValue root = obs::json_parse(record_curves_json(config));
  const JsonValue* phases = root.find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_EQ(phases->array.size(), 1u);
  EXPECT_EQ(phases->array[0].find("model"), nullptr);
  EXPECT_EQ(root.find("analytic"), nullptr);
}

// ---------------------------------------------------------------------------
// Flight recorder.

FlightRecorder::Event crash_event(std::uint64_t t, std::uint32_t member) {
  FlightRecorder::Event e;
  e.at = SimTime::micros(static_cast<SimTime::underlying>(t));
  e.kind = FlightRecorder::EventKind::kCrash;
  e.a = member;
  return e;
}

TEST(FlightRecorderTest, RingKeepsTheTailOldestFirst) {
  FlightRecorder::Options fopt;
  fopt.capacity = 4;
  fopt.config_text = "proto=hier-gossip n=8";
  fopt.chaos_spec = "loss 0.5";
  fopt.seed = 42;
  FlightRecorder flight(fopt);
  for (std::uint64_t i = 0; i < 10; ++i) {
    flight.record(crash_event(i, static_cast<std::uint32_t>(i)));
  }
  EXPECT_EQ(flight.total_recorded(), 10u);
  EXPECT_EQ(flight.kept(), 4u);

  const std::string dump = flight.dump();
  EXPECT_NE(dump.find("gridbox-flight/1"), std::string::npos);
  EXPECT_NE(dump.find("seed 42"), std::string::npos);
  EXPECT_NE(dump.find("events_recorded 10"), std::string::npos);
  EXPECT_NE(dump.find("events_kept 4"), std::string::npos);
  EXPECT_NE(dump.find("proto=hier-gossip n=8"), std::string::npos);
  EXPECT_NE(dump.find("loss 0.5"), std::string::npos);
  // Events 0..5 were evicted; 6..9 remain, oldest first.
  EXPECT_EQ(dump.find("crash m=5"), std::string::npos);
  const std::size_t tail = dump.find("--- tail ---");
  ASSERT_NE(tail, std::string::npos);
  EXPECT_LT(dump.find("t=6us crash m=6"), dump.find("t=7us crash m=7"));
  EXPECT_LT(dump.find("t=8us crash m=8"), dump.find("t=9us crash m=9"));
}

TEST(FlightRecorderTest, CapturesARunsEventStream) {
  ExperimentConfig config = curves_config();
  FlightRecorder::Options fopt;
  fopt.config_text = runner::config_canonical_text(config);
  fopt.chaos_spec = config.chaos_spec;
  fopt.seed = config.seed;
  FlightRecorder flight(fopt);
  config.flight = &flight;
  (void)runner::run_experiment(config);
  EXPECT_GT(flight.total_recorded(), 0u);
  const std::string dump = flight.dump();
  EXPECT_NE(dump.find("gain"), std::string::npos);
  EXPECT_NE(dump.find("conclude"), std::string::npos);
  EXPECT_NE(dump.find("finish"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Profiling satellites: new scopes exist, and an unprofiled run never
// installs a collector at all (the hot path stays free).

class CollectorProbe final : public protocols::gossip::GossipTrace {
 public:
  bool saw_collector = false;

  void on_phase_entered(MemberId member, std::size_t phase) override {
    (void)member;
    (void)phase;
    if (obs::ProfileCollector::current() != nullptr) saw_collector = true;
  }
};

TEST(Profile, NoCollectorInstalledWhenProfilingOff) {
  ExperimentConfig config = curves_config();
  CollectorProbe probe;
  config.gossip.trace = &probe;
  const RunResult result = runner::run_experiment(config);
  EXPECT_TRUE(result.profile.empty());
  EXPECT_FALSE(probe.saw_collector);
}

TEST(Profile, CodecAndQueueScopesReportWhenOn) {
  ExperimentConfig config = curves_config();
  config.profile = true;
  const RunResult result = runner::run_experiment(config);
  ASSERT_FALSE(result.profile.empty());
  for (const char* section :
       {"sim.run", "queue.pop", "codec.encode", "codec.decode"}) {
    const auto it = result.profile.sections.find(section);
    ASSERT_NE(it, result.profile.sections.end()) << section;
    EXPECT_GT(it->second.count, 0u) << section;
  }
}

}  // namespace
}  // namespace gridbox
