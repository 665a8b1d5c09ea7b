// Live-telemetry gates: lane/histogram semantics, the shard-ordered fold,
// scripted-clock lateness attribution on the reactor, and the
// headline determinism claim — on the simulator substrate the whole
// gridbox-telemetry/1 JSONL series is a byte-deterministic function of
// (config, seed), invariant under the jobs knob and under how a scripted
// load is distributed across lanes.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/types.h"
#include "src/net/reactor.h"
#include "src/obs/json.h"
#include "src/obs/telemetry.h"
#include "src/runner/config.h"
#include "src/runner/experiment.h"
#include "src/service/service.h"
#include "src/sim/simulator.h"
#include "tests/golden.h"

namespace gridbox {
namespace {

using obs::JsonValue;
using obs::LaneSnapshot;
using obs::TelemetryHist;
using obs::TelemetryHub;

TEST(TelemetryHistTest, Log2BucketingHoldsAtTheEdges) {
  EXPECT_EQ(TelemetryHist::bucket_of(0), 0u);   // exact zeros
  EXPECT_EQ(TelemetryHist::bucket_of(1), 1u);   // [1, 2)
  EXPECT_EQ(TelemetryHist::bucket_of(2), 2u);   // [2, 4)
  EXPECT_EQ(TelemetryHist::bucket_of(3), 2u);
  EXPECT_EQ(TelemetryHist::bucket_of(4), 3u);   // [4, 8)
  EXPECT_EQ(TelemetryHist::bucket_of(3000), 12u);  // [2048, 4096)
  // The last bucket absorbs everything past the covered range.
  EXPECT_EQ(TelemetryHist::bucket_of(std::uint64_t{1} << 20),
            TelemetryHist::kBuckets - 1);
  EXPECT_EQ(TelemetryHist::bucket_of(~std::uint64_t{0}),
            TelemetryHist::kBuckets - 1);
}

/// A hub folding `lanes` in index order (the hub does not own them).
TelemetryHub hub_over(std::vector<obs::TelemetryLane>& lanes) {
  std::vector<const obs::TelemetryLane*> order;
  for (const obs::TelemetryLane& lane : lanes) order.push_back(&lane);
  return TelemetryHub(std::move(order));
}

/// Drives the same scripted load into `count` lanes, member m landing on
/// lane m % count — the shard_of rule of every runtime — and folds them.
LaneSnapshot folded_total(std::size_t count) {
  std::vector<obs::TelemetryLane> lanes(count);
  for (std::uint64_t m = 0; m < 96; ++m) {
    obs::TelemetryLane& lane = lanes[m % count];
    lane.note_timer_fired(m % 7);
    lane.actions_run.fetch_add(1 + m % 3, std::memory_order_relaxed);
    lane.frames_delivered.fetch_add(m % 5, std::memory_order_relaxed);
    lane.drain_per_wake.observe(m % 5);
    lane.dispatch_per_tick.observe(m % 11);
    lane.note_queue_depth(m % 9);
  }
  return hub_over(lanes).snapshot_total();
}

TEST(TelemetryHubTest, ShardOrderedFoldIsInvariantUnderLaneCount) {
  const LaneSnapshot one = folded_total(1);
  for (const std::size_t lanes : {std::size_t{2}, std::size_t{4}}) {
    const LaneSnapshot many = folded_total(lanes);
    EXPECT_EQ(one.timers_fired, many.timers_fired) << lanes;
    EXPECT_EQ(one.actions_run, many.actions_run) << lanes;
    EXPECT_EQ(one.frames_delivered, many.frames_delivered) << lanes;
    // The high-water gauge folds by max, so the global maximum survives
    // any distribution of members over lanes.
    EXPECT_EQ(one.queue_depth_hw, many.queue_depth_hw) << lanes;
    for (std::size_t b = 0; b < TelemetryHist::kBuckets; ++b) {
      EXPECT_EQ(one.timer_lateness_us[b], many.timer_lateness_us[b])
          << lanes << " lanes, bucket " << b;
      EXPECT_EQ(one.drain_per_wake[b], many.drain_per_wake[b])
          << lanes << " lanes, bucket " << b;
      EXPECT_EQ(one.dispatch_per_tick[b], many.dispatch_per_tick[b])
          << lanes << " lanes, bucket " << b;
    }
  }
}

TEST(TelemetrySamplerTest, EmitsSchemaVersionedSequencedRecords) {
  std::vector<obs::TelemetryLane> lanes(2);
  TelemetryHub hub = hub_over(lanes);
  lanes[0].note_timer_fired(100);
  lanes[1].note_timer_fired(0);

  std::string sink;
  obs::TelemetryConfig config;
  config.enabled = true;
  config.interval = SimTime::millis(10);
  config.sink = &sink;
  obs::TelemetrySampler sampler(hub, config);
  sampler.sample(SimTime::millis(10));
  lanes[0].frames_delivered.fetch_add(3, std::memory_order_relaxed);
  sampler.sample(SimTime::millis(20));
  EXPECT_EQ(sampler.samples(), 2u);

  std::istringstream lines(sink);
  std::string line;
  std::uint64_t expected_seq = 0;
  std::string last;
  while (std::getline(lines, line)) {
    const JsonValue doc = obs::json_parse(line);
    EXPECT_EQ(doc.string_or("schema", ""), TelemetryHub::kSchema);
    EXPECT_EQ(static_cast<std::uint64_t>(doc.number_or("seq", 99)),
              expected_seq++);
    EXPECT_EQ(doc.number_or("lanes", 0), 2.0);
    const JsonValue* shards = doc.find("shards");
    ASSERT_NE(shards, nullptr);
    ASSERT_TRUE(shards->is_array());
    EXPECT_EQ(shards->array.size(), 2u);
    EXPECT_NE(doc.find("total"), nullptr);
    // One-shot hub: no service is watched, so the section is absent.
    EXPECT_EQ(doc.find("service"), nullptr);
    last = line;
  }
  EXPECT_EQ(expected_seq, 2u);
  EXPECT_EQ(sampler.latest(), last);

  // The second record saw the frame deliveries that landed in between.
  const JsonValue doc = obs::json_parse(last);
  const JsonValue* total = doc.find("total");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->number_or("frames", 0), 3.0);
  EXPECT_EQ(total->number_or("timers_fired", 0), 2.0);
}

TEST(TelemetryReactorTest, ScriptedClockAttributesTimerLateness) {
  net::Reactor reactor{net::Reactor::Options{}};
  const obs::TelemetryLane& lane = reactor.telemetry();
  SimTime clock = SimTime::zero();
  reactor.set_clock_fn([&clock]() { return clock; });

  struct Once final : sim::TimerTarget {
    int fired = 0;
    bool on_timer(std::uint32_t) override {
      ++fired;
      return false;
    }
  } target;
  reactor.schedule_timer_at(SimTime::millis(5), target);

  // The loop stalls: the clock reaches t=8ms before the next pass, so
  // the 5ms timer fires 3000us late — bucket 12 covers [2048, 4096).
  clock = SimTime::micros(8000);
  reactor.fire_due_timers();

  EXPECT_EQ(target.fired, 1);
  EXPECT_EQ(lane.timers_fired.load(std::memory_order_relaxed), 1u);
  EXPECT_EQ(lane.timer_lateness_us.buckets[12].load(std::memory_order_relaxed),
            1u);
  EXPECT_EQ(lane.timer_lateness_us.total(), 1u);
  EXPECT_EQ(lane.dispatch_per_tick.total(), 1u);
}

TEST(TelemetrySimulatorTest, VirtualClockFiresExactlyOnTime) {
  sim::Simulator sim;
  obs::TelemetryLane lane;
  sim.set_telemetry(&lane);

  struct Ticker final : sim::TimerTarget {
    int left = 5;
    bool on_timer(std::uint32_t) override { return --left > 0; }
  } ticker;
  sim.schedule_periodic(SimTime::millis(1), SimTime::millis(1), ticker);
  sim.run();

  EXPECT_EQ(lane.timers_fired.load(std::memory_order_relaxed), 5u);
  // Lateness is identically zero on the virtual clock: all in bucket 0.
  EXPECT_EQ(lane.timer_lateness_us.buckets[0].load(std::memory_order_relaxed),
            5u);
  EXPECT_EQ(lane.timer_lateness_us.total(), 5u);
}

/// One full simulator run with telemetry streamed to an in-memory sink.
std::string one_shot_series(std::size_t jobs) {
  runner::ExperimentConfig config;
  config.group_size = 48;
  config.seed = 20010701;
  config.jobs = jobs;
  config.telemetry.enabled = true;
  config.telemetry.interval = SimTime::millis(20);
  std::string sink;
  config.telemetry.sink = &sink;
  const runner::RunResult result = runner::run_experiment(config);
  EXPECT_GT(result.sim_events, 0u);
  return sink;
}

TEST(TelemetryDeterminismTest, OneShotSeriesIsByteIdenticalAcrossRunsAndJobs) {
  const std::string first = one_shot_series(1);
  ASSERT_FALSE(first.empty());
  // Repeatable, and independent of the execution-side jobs knob.
  EXPECT_EQ(first, one_shot_series(1));
  EXPECT_EQ(first, one_shot_series(8));

  // Every line parses, carries the schema, and the clock never rewinds.
  std::istringstream lines(first);
  std::string line;
  double last_t = -1.0;
  std::size_t records = 0;
  while (std::getline(lines, line)) {
    const JsonValue doc = obs::json_parse(line);
    EXPECT_EQ(doc.string_or("schema", ""), TelemetryHub::kSchema);
    const double t = doc.number_or("t_us", -1.0);
    EXPECT_GE(t, last_t);
    last_t = t;
    ++records;
  }
  EXPECT_GT(records, 1u);  // the cadence sampled mid-run, not just at exit
}

// The one-shot series pinned byte for byte (the determinism test above
// only compares runs of the same build with each other).
TEST(TelemetryGoldenTest, OneShotSeriesMatchesFixture) {
  testing::check_against_golden("telemetry_one_shot_n48_seed20010701.jsonl",
                                one_shot_series(1));
}

/// One streaming service run on the simulator substrate, telemetry to an
/// in-memory sink.
std::string service_series(std::size_t jobs) {
  service::ServiceConfig sc;
  sc.experiment.group_size = 24;
  sc.experiment.seed = 77;
  sc.experiment.jobs = jobs;
  sc.experiment.telemetry.enabled = true;
  sc.experiment.telemetry.interval = SimTime::millis(10);
  std::string sink;
  sc.experiment.telemetry.sink = &sink;
  sc.instances = 6;
  sc.epoch_interval = SimTime::millis(5);
  sc.max_in_flight = 4;
  const service::ServiceResult result = service::run_service_experiment(sc);
  EXPECT_EQ(result.metrics.completed, 6u);
  return sink;
}

TEST(TelemetryDeterminismTest, ServiceSeriesIsByteIdenticalAcrossRunsAndJobs) {
  const std::string first = service_series(1);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, service_series(1));
  EXPECT_EQ(first, service_series(8));

  // Service runs carry the service section; the final record accounts for
  // the whole stream.
  std::istringstream lines(first);
  std::string line;
  std::string last;
  while (std::getline(lines, line)) last = line;
  const JsonValue doc = obs::json_parse(last);
  const JsonValue* service = doc.find("service");
  ASSERT_NE(service, nullptr);
  EXPECT_EQ(service->number_or("launched", 0), 6.0);
  EXPECT_EQ(service->number_or("completed", 0), 6.0);
  EXPECT_EQ(service->number_or("in_flight", 99), 0.0);
  const JsonValue* epoch = service->find("epoch_latency_us");
  ASSERT_NE(epoch, nullptr);
  ASSERT_TRUE(epoch->is_array());
  double observed = 0;
  for (const JsonValue& b : epoch->array) observed += b.number;
  EXPECT_EQ(observed, 6.0);  // one latency observation per completion
}

// The service series, service section included, pinned byte for byte.
TEST(TelemetryGoldenTest, ServiceSeriesMatchesFixture) {
  testing::check_against_golden("telemetry_service_n24_seed77.jsonl",
                                service_series(1));
}

}  // namespace
}  // namespace gridbox
