#include "src/obs/telemetry.h"

#include <utility>

#include "src/common/ensure.h"
#include "src/obs/json.h"

namespace gridbox::obs {
namespace {

void write_hist(JsonWriter& w, const char* name,
                const std::uint64_t (&buckets)[TelemetryHist::kBuckets]) {
  w.key(name).begin_array();
  for (const std::uint64_t b : buckets) w.value(b);
  w.end_array();
}

void write_lane(JsonWriter& w, const LaneSnapshot& lane) {
  w.begin_object();
  w.key("timers_fired").value(lane.timers_fired);
  w.key("actions_run").value(lane.actions_run);
  w.key("frames").value(lane.frames_delivered);
  w.key("polls").value(lane.polls);
  w.key("wakes_io").value(lane.wakes_io);
  w.key("wakes_timeout").value(lane.wakes_timeout);
  w.key("eintr").value(lane.eintr_retries);
  w.key("queue_depth_hw").value(lane.queue_depth_hw);
  write_hist(w, "lateness_us", lane.timer_lateness_us);
  write_hist(w, "drain_per_wake", lane.drain_per_wake);
  write_hist(w, "dispatch_per_tick", lane.dispatch_per_tick);
  w.end_object();
}

void copy_hist(std::uint64_t (&out)[TelemetryHist::kBuckets],
               const TelemetryHist& hist) {
  for (std::size_t b = 0; b < TelemetryHist::kBuckets; ++b) {
    out[b] = hist.buckets[b].load(std::memory_order_relaxed);
  }
}

void add_hist(std::uint64_t (&out)[TelemetryHist::kBuckets],
              const std::uint64_t (&in)[TelemetryHist::kBuckets]) {
  for (std::size_t b = 0; b < TelemetryHist::kBuckets; ++b) out[b] += in[b];
}

/// Plain copy of one lane (each counter read individually: possibly torn
/// while its shard runs, exact after a join).
LaneSnapshot snapshot_of(const TelemetryLane& lane) {
  LaneSnapshot snap;
  snap.timers_fired = lane.timers_fired.load(std::memory_order_relaxed);
  snap.actions_run = lane.actions_run.load(std::memory_order_relaxed);
  snap.frames_delivered = lane.frames_delivered.load(std::memory_order_relaxed);
  snap.polls = lane.polls.load(std::memory_order_relaxed);
  snap.wakes_io = lane.wakes_io.load(std::memory_order_relaxed);
  snap.wakes_timeout = lane.wakes_timeout.load(std::memory_order_relaxed);
  snap.eintr_retries = lane.eintr_retries.load(std::memory_order_relaxed);
  snap.queue_depth_hw = lane.queue_depth_hw.load(std::memory_order_relaxed);
  copy_hist(snap.timer_lateness_us, lane.timer_lateness_us);
  copy_hist(snap.drain_per_wake, lane.drain_per_wake);
  copy_hist(snap.dispatch_per_tick, lane.dispatch_per_tick);
  return snap;
}

}  // namespace

void LaneSnapshot::add(const LaneSnapshot& other) {
  timers_fired += other.timers_fired;
  actions_run += other.actions_run;
  frames_delivered += other.frames_delivered;
  polls += other.polls;
  wakes_io += other.wakes_io;
  wakes_timeout += other.wakes_timeout;
  eintr_retries += other.eintr_retries;
  queue_depth_hw = std::max(queue_depth_hw, other.queue_depth_hw);
  add_hist(timer_lateness_us, other.timer_lateness_us);
  add_hist(drain_per_wake, other.drain_per_wake);
  add_hist(dispatch_per_tick, other.dispatch_per_tick);
}

TelemetryHub::TelemetryHub(std::vector<const TelemetryLane*> lanes)
    : lanes_(std::move(lanes)) {
  expects(!lanes_.empty(), "TelemetryHub needs at least one lane");
}

LaneSnapshot TelemetryHub::snapshot_total() const {
  LaneSnapshot total;
  for (const TelemetryLane* lane : lanes_) total.add(snapshot_of(*lane));
  return total;
}

std::string TelemetryHub::sample_json(std::uint64_t seq, SimTime now) const {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value(kSchema);
  w.key("seq").value(seq);
  w.key("t_us").value(static_cast<std::int64_t>(now.ticks()));
  w.key("lanes").value(static_cast<std::uint64_t>(lanes_.size()));
  w.key("shards").begin_array();
  LaneSnapshot total;
  for (const TelemetryLane* lane : lanes_) {
    const LaneSnapshot snap = snapshot_of(*lane);
    write_lane(w, snap);
    total.add(snap);
  }
  w.end_array();
  w.key("total");
  write_lane(w, total);
  if (service_ != nullptr) {
    const ServiceTelemetry& s = *service_;
    w.key("service").begin_object();
    w.key("launched").value(s.launched);
    w.key("completed").value(s.completed);
    w.key("failed").value(s.failed);
    w.key("deferred").value(s.deferred);
    w.key("in_flight").value(s.in_flight);
    w.key("in_flight_hw").value(s.in_flight_hw);
    w.key("deferred_queue").value(s.deferred_queue);
    w.key("deferred_queue_hw").value(s.deferred_queue_hw);
    std::uint64_t epoch[TelemetryHist::kBuckets];
    copy_hist(epoch, s.epoch_latency_us);
    write_hist(w, "epoch_latency_us", epoch);
    w.end_object();
  }
  w.end_object();
  return w.take();
}

TelemetrySampler::TelemetrySampler(TelemetryHub& hub, TelemetryConfig config)
    : hub_(hub), config_(std::move(config)) {
  expects(config_.interval > SimTime::zero(),
          "telemetry interval must be positive");
  if (!config_.out_path.empty()) {
    file_ = std::fopen(config_.out_path.c_str(), "w");
    expects(file_ != nullptr,
            "cannot open telemetry output file: " + config_.out_path);
  }
}

TelemetrySampler::~TelemetrySampler() {
  if (file_ != nullptr) (void)std::fclose(file_);
}

void TelemetrySampler::sample(SimTime now) {
  latest_ = hub_.sample_json(seq_++, now);
  if (file_ != nullptr) {
    (void)std::fwrite(latest_.data(), 1, latest_.size(), file_);
    (void)std::fputc('\n', file_);
    // Flush per record: the series is a live health feed, and a tailing
    // gridbox_top must only ever see whole lines.
    (void)std::fflush(file_);
  }
  if (config_.sink != nullptr) {
    config_.sink->append(latest_);
    config_.sink->push_back('\n');
  }
}

}  // namespace gridbox::obs
