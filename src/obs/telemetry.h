// Live runtime telemetry: per-shard health lanes sampled into a
// schema-versioned JSONL time series.
//
// The post-mortem observability stack (metrics, lineage, curves, flight
// recorder) answers "what happened" after measure_run; this layer answers
// "what is the run doing right now". Where each count lives:
//   - A reactor shard's loop counts (timer fires, posted actions, polls,
//     wake causes, EINTR retries on poll and on receive, drain and dispatch
//     histograms, post-queue high-water) live only in the TelemetryLane its
//     net::Reactor owns. The lane is always armed; UdpRunResult and
//     UdpServiceResult read their timers_fired / polls / eintr_retries from
//     the shard-ordered fold of these lanes.
//   - The simulator's lane is opt-in (run_experiment / the service arm it
//     only when telemetry is on): the obs-overhead gate protects the
//     simulator's per-event cost.
//   - Message totals live in net::NetworkStats. The one count kept twice on
//     purpose is delivery: NetworkStats::messages_delivered is written
//     plainly by the shard thread for post-join reads, and the lane's
//     frames_delivered is its atomic twin for live cross-thread sampling.
//   - The service engine's stream counts live only in its
//     ServiceTelemetry; the hub samples it by reference and
//     ServiceEngine::collect() copies it into ServiceMetrics.
//
// A lane is cache-line aligned and holds relaxed-atomic counters and
// fixed-bucket log2 histograms — the same single-writer, no-lock discipline
// as the mux stat lanes (DESIGN.md §14). The steady-state record path is a
// relaxed fetch_add into preallocated fixed arrays — no locks, no heap (the
// zero-alloc suite pins that claim).
//
// A TelemetrySampler on the control thread renders a TelemetryHub — a
// shard-ordered fold over lanes it does not own — on a fixed interval into
// one "gridbox-telemetry/1" JSONL record: integer-only, lanes merged in
// shard order, so on the simulator substrate the whole series is a
// byte-deterministic function of (config, seed). Leaf header: depends on
// common/types.h and the standard library only, so net/ and sim/ can
// include it without a layering cycle.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace gridbox::obs {

/// Fixed log2 histogram. Bucket 0 holds exact zeros; bucket b in [1, 14]
/// holds values in [2^(b-1), 2^b); the last bucket absorbs everything
/// larger. Observation is one relaxed fetch_add; merging is bucket-wise
/// addition, so per-shard histograms fold deterministically in shard order.
struct TelemetryHist {
  static constexpr std::size_t kBuckets = 16;
  std::atomic<std::uint64_t> buckets[kBuckets] = {};

  [[nodiscard]] static std::size_t bucket_of(std::uint64_t value) {
    if (value == 0) return 0;
    return std::min<std::size_t>(kBuckets - 1, std::bit_width(value));
  }

  void observe(std::uint64_t value) {
    buckets[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const auto& b : buckets) sum += b.load(std::memory_order_relaxed);
    return sum;
  }
};

/// One shard's live health counters. Single writer — the owning shard
/// thread — except note_post_depth, which post()ing threads race through a
/// relaxed fetch-max. Readers (the control-thread sampler) see a valid,
/// possibly slightly torn snapshot: each counter is individually atomic,
/// and per-sample deltas over a torn snapshot still bound the truth.
struct alignas(64) TelemetryLane {
  std::atomic<std::uint64_t> timers_fired{0};
  std::atomic<std::uint64_t> actions_run{0};
  /// Datagrams delivered (reactor shards) / frames delivered (simulator).
  std::atomic<std::uint64_t> frames_delivered{0};
  std::atomic<std::uint64_t> polls{0};
  std::atomic<std::uint64_t> wakes_io{0};      ///< readable fd, post or peer
  std::atomic<std::uint64_t> wakes_timeout{0}; ///< timer due, or deadline
  std::atomic<std::uint64_t> eintr_retries{0};
  /// High-water of the cross-thread post() inbox (reactor) or of the
  /// pending event queue (simulator).
  std::atomic<std::uint64_t> queue_depth_hw{0};
  /// Timer fire time minus scheduled deadline, µs. Always bucket 0 on the
  /// simulator: the virtual clock fires exactly on time.
  TelemetryHist timer_lateness_us;
  /// Datagrams drained per on_readable wake (bucket 0 = spurious wake).
  TelemetryHist drain_per_wake;
  /// Entries fired per non-empty reactor pass (timers and actions due when
  /// the pass began). Named "tick" for a pass; the name stays so
  /// gridbox-telemetry/1 records keep their shape.
  TelemetryHist dispatch_per_tick;

  void note_timer_fired(std::uint64_t lateness_us) {
    timers_fired.fetch_add(1, std::memory_order_relaxed);
    timer_lateness_us.observe(lateness_us);
  }

  void note_queue_depth(std::uint64_t depth) {
    std::uint64_t seen = queue_depth_hw.load(std::memory_order_relaxed);
    while (seen < depth && !queue_depth_hw.compare_exchange_weak(
                               seen, depth, std::memory_order_relaxed)) {
    }
  }
};

/// The service engine's stream counts — the only copy: the engine updates
/// them, the hub samples them, collect() reports them. Control thread only
/// (the engine's bookkeeping is single-threaded by construction), so plain
/// fields; the sampler runs on the same thread.
struct ServiceTelemetry {
  std::uint64_t launched = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t deferred = 0;
  std::uint64_t in_flight = 0;        ///< current window occupancy
  std::uint64_t in_flight_hw = 0;
  std::uint64_t deferred_queue = 0;   ///< launches currently parked
  std::uint64_t deferred_queue_hw = 0;
  /// Launch → every-participant-finished latency, µs, per instance.
  TelemetryHist epoch_latency_us;

  /// Refreshes the high-water gauges after in_flight grew or the
  /// deferred-launch queue (now `queued` long) changed.
  void note_occupancy(std::uint64_t queued) {
    in_flight_hw = std::max(in_flight_hw, in_flight);
    deferred_queue = queued;
    deferred_queue_hw = std::max(deferred_queue_hw, queued);
  }
};

/// Plain (non-atomic) copy of one lane, and the fold unit for the
/// shard-ordered total.
struct LaneSnapshot {
  std::uint64_t timers_fired = 0;
  std::uint64_t actions_run = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t polls = 0;
  std::uint64_t wakes_io = 0;
  std::uint64_t wakes_timeout = 0;
  std::uint64_t eintr_retries = 0;
  std::uint64_t queue_depth_hw = 0;
  std::uint64_t timer_lateness_us[TelemetryHist::kBuckets] = {};
  std::uint64_t drain_per_wake[TelemetryHist::kBuckets] = {};
  std::uint64_t dispatch_per_tick[TelemetryHist::kBuckets] = {};

  /// Counters and buckets add; the high-water gauge takes the max.
  void add(const LaneSnapshot& other);
};

/// A shard-ordered fold over lanes it does not own (one per reactor shard;
/// one on the simulator substrate), plus the service section when it
/// watches a service engine. Renders the merged JSONL record.
class TelemetryHub {
 public:
  static constexpr const char* kSchema = "gridbox-telemetry/1";

  /// `lanes` in shard order; each must outlive the hub.
  explicit TelemetryHub(std::vector<const TelemetryLane*> lanes);

  /// Adds the service section to every record, read from `service` (which
  /// must outlive the hub) on the sampling thread. One-shot runs never
  /// call this and their records omit "service".
  void watch_service(const ServiceTelemetry& service) { service_ = &service; }

  /// All lanes folded in shard order (the deterministic merge).
  [[nodiscard]] LaneSnapshot snapshot_total() const;

  /// One "gridbox-telemetry/1" record (no trailing newline): integer-only,
  /// per-lane objects in shard order, the shard-ordered total, and the
  /// service section when watched.
  [[nodiscard]] std::string sample_json(std::uint64_t seq, SimTime now) const;

 private:
  std::vector<const TelemetryLane*> lanes_;
  const ServiceTelemetry* service_ = nullptr;
};

/// Sampling configuration, carried by ExperimentConfig so every runtime
/// (simulator, UDP one-shot, both service substrates) reads one knob.
/// Execution-side instrumentation: excluded from config_canonical_text,
/// never affects what a run computes.
struct TelemetryConfig {
  bool enabled = false;
  /// Sampling cadence on the substrate's own clock (virtual µs on the
  /// simulator, wall µs on the reactors).
  SimTime interval = SimTime::millis(100);
  /// JSONL destination; empty = no file (latest() still serves the socket).
  std::string out_path;
  /// Optional in-memory sink: every record (newline-terminated) is
  /// appended. Non-owning; the determinism tests read telemetry here.
  std::string* sink = nullptr;
  /// UDP runtimes only: serve the latest record one-shot from
  /// 127.0.0.1:udp_port (0 = no stats socket). gridbox_top polls it.
  std::uint16_t udp_port = 0;
};

/// Control-thread sampler: renders the hub into JSONL on a fixed cadence.
/// sample() must be called from one thread at a time (the control shard
/// mid-run; the joining thread for the final sample).
class TelemetrySampler {
 public:
  TelemetrySampler(TelemetryHub& hub, TelemetryConfig config);
  ~TelemetrySampler();
  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  /// Appends one record stamped `now` to the file/sink and retains it as
  /// latest(). Flushes the file so a live `gridbox_top --file` tail sees
  /// complete lines.
  void sample(SimTime now);

  [[nodiscard]] const std::string& latest() const { return latest_; }
  [[nodiscard]] SimTime interval() const { return config_.interval; }
  [[nodiscard]] std::uint64_t samples() const { return seq_; }

 private:
  TelemetryHub& hub_;
  TelemetryConfig config_;
  std::FILE* file_ = nullptr;
  std::string latest_;
  std::uint64_t seq_ = 0;
};

}  // namespace gridbox::obs
