// Aggregation as a service: a stream of concurrent protocol instances.
//
// The paper treats one aggregation as one protocol run. A long-lived
// deployment instead answers a *stream* of aggregate queries — a new epoch
// launches on a fixed cadence while its predecessors are still draining.
// The ServiceEngine is that runtime: it multiplexes many concurrent
// instances over ONE shared membership, ONE transport per member (via
// InstanceMux), and ONE event engine, on either substrate (simulator or
// UDP reactors) through the Substrate seam.
//
// Instance lifecycle:
//   launch    — a fresh world (votes, hash salt, hierarchy, audit, nodes)
//               derived from Rng(seed).derive(kInstanceWorld).derive(id);
//               participants are the members alive in the shared group at
//               the epoch's due time. Launches respect the max_in_flight
//               window: an epoch due while the window is full is deferred,
//               launching (in id order) as soon as a slot frees, with the
//               cohort it had when due.
//   running   — nodes execute; crashes in the shared liveness view fan into
//               every running instance's own membership view.
//   draining  — every participant finished (or died): the instance closes
//               in the mux (late frames count `retired_instance`) and waits
//               for its nodes' remaining timers — the final-phase linger —
//               to expire. Closing stops deliveries, so no new timers
//               appear: the pending count is monotone non-increasing.
//   completed — timers quiescent: the run is measured (measure_run + the
//               per-instance invariant checker), the arena returns to the
//               recycle pool, and the nodes are destroyed. Per-instance
//               memory does not grow with the length of the epoch stream.
//   failed    — the instance deadline passed first: it closes in the mux
//               and is parked (nodes kept alive but unreachable) until
//               engine teardown; its violations are reported.
//
// Churn: `join M at=T` marks M absent from service start (it participates
// in no instance) until T, when it enters the shared view again and is a
// participant of every instance due from the next epoch on — joiners
// enter at epoch boundaries, never mid-instance. `recover M at=T` re-enters
// a (chaos-)crashed member the same way. Running instances never resurrect
// a member: their membership view only shrinks.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/membership/group.h"
#include "src/net/chaos.h"
#include "src/net/stats.h"
#include "src/obs/lineage.h"
#include "src/obs/run_observer.h"
#include "src/obs/telemetry.h"
#include "src/protocols/arena.h"
#include "src/protocols/invariant_checker.h"
#include "src/protocols/node.h"
#include "src/protocols/protocol_stats.h"
#include "src/runner/config.h"
#include "src/runner/world_setup.h"
#include "src/service/mux.h"
#include "src/sim/scheduler.h"
#include "src/sim/simulator.h"

namespace gridbox::runner {
class UdpMesh;
}  // namespace gridbox::runner

namespace gridbox::service {

/// Stream tag for per-instance world derivation: instance i's root is
/// Rng(seed).derive(kInstanceWorld).derive(i), so instance worlds are
/// independent of each other and of every runner::streams tag.
inline constexpr std::uint64_t kInstanceWorld = 0x5E;

struct ServiceConfig {
  /// The per-instance experiment (protocol, group size, loss, chaos, ...).
  /// chaos_spec here MAY contain join/recover directives — the service
  /// engine is the one runtime that honors them.
  runner::ExperimentConfig experiment;

  /// Total instances to stream through the service.
  std::size_t instances = 8;

  /// Launch cadence: instance i is due at i * epoch_interval.
  SimTime epoch_interval = SimTime::millis(50);

  /// Bounded in-flight window: a due launch defers while this many
  /// instances are running (draining ones have answered; they don't count).
  std::size_t max_in_flight = 8;

  /// Per-instance deadline = max(runner::kDeadlineFloor,
  /// deadline_factor * horizon).
  double deadline_factor = 20.0;

  /// Attach a per-instance LineageTracker (simulator substrate only) and
  /// return its JSON per instance — input of `gridbox_explain --instance`.
  bool collect_lineage = false;
};

/// Outcome of one instance of the stream.
struct InstanceResult {
  std::uint32_t id = 0;
  bool completed = false;
  SimTime launched_at = SimTime::zero();
  SimTime completed_at = SimTime::zero();
  /// Members alive in the shared group at the epoch's due time (its cohort).
  std::size_t participants = 0;
  protocols::RunMeasurement measurement;
  net::NetworkStats network;
  std::size_t invariant_violations = 0;
  std::string first_violation;
  /// "gridbox-lineage/1" document (collect_lineage runs only).
  std::string lineage_json;
};

/// Service-level throughput/latency metrics.
struct ServiceMetrics {
  std::size_t launched = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  /// Launches that were deferred at their due epoch (window full).
  std::size_t deferred = 0;
  /// Completion-time (launch -> every participant finished) percentiles.
  SimTime p50_completion = SimTime::zero();
  SimTime p90_completion = SimTime::zero();
  SimTime p99_completion = SimTime::zero();
  /// Completed instances per second of engine time.
  double instances_per_sec = 0.0;
  DemuxStats demux;
};

struct ServiceResult {
  /// Every instance completed and none failed.
  bool completed = false;
  /// completed, and every instance honest and invariant-clean.
  [[nodiscard]] bool clean() const;
  SimTime elapsed = SimTime::zero();
  std::vector<InstanceResult> instances;  ///< sorted by id
  ServiceMetrics metrics;
  /// Events the simulator executed for the whole stream; 0 on the UDP
  /// substrate, which has no simulator.
  std::uint64_t sim_events = 0;
};

/// The service engine, on the simulator or the UDP reactor mesh
/// (Substrate). There is no dispatch lock (DESIGN.md §14): every callback
/// the engine schedules runs on the control thread, so its bookkeeping is
/// single-threaded by construction. What other shards touch concurrently
/// is safe on its own terms — node completion and Group liveness are
/// atomic, the mux is lock-free, and `done_` (the run_until probe every
/// shard reads) is an atomic flag.
class ServiceEngine {
 public:
  /// Where the stream runs: exactly one of `simulator` and `mesh` is set.
  /// The simulator runs everything inline on its one thread, with
  /// Theorem-1 checker deadlines, fail-fast invariants and lineage
  /// timestamps. On the UDP mesh the engine's bookkeeping runs on the
  /// control shard, nodes start on their own shard, drain detection hops
  /// every shard, and with more than one shard each instance's audit
  /// registry and invariant checker are armed for concurrent trace events.
  struct Substrate {
    sim::Simulator* simulator = nullptr;
    runner::UdpMesh* mesh = nullptr;
  };

  /// `mux` must be attached; `shared_group` is the service's liveness view
  /// (the transports' liveness oracle must read it). Both must outlive the
  /// engine.
  ServiceEngine(const ServiceConfig& config, InstanceMux& mux,
                membership::Group& shared_group, Substrate substrate);
  ServiceEngine(const ServiceEngine&) = delete;
  ServiceEngine& operator=(const ServiceEngine&) = delete;

  /// Schedules the whole service: epoch launches, the periodic scan, the
  /// churn script, and the per-round crash clock. Call once, before the
  /// event loop runs (UDP: before the reactor threads start).
  void begin();

  /// True once every instance has been launched and resolved (completed or
  /// failed). The event loop's done() probe — every shard thread reads it,
  /// so it is a bare atomic load (set once, on the control thread).
  [[nodiscard]] bool finished() const {
    return done_.load(std::memory_order_acquire);
  }

  /// The stream counts — launch/complete/fail/defer, window occupancy
  /// gauges, the epoch-latency histogram — kept only here, on the control
  /// thread. A telemetry hub samples them by reference (on the same
  /// thread); collect() copies them into ServiceMetrics.
  [[nodiscard]] const obs::ServiceTelemetry& counts() const { return counts_; }

  /// Backstop deadline for the event loop: generous serial worst case.
  [[nodiscard]] SimTime global_deadline() const { return global_deadline_; }

  /// Builds the final result. Call once, after the event loop has stopped.
  /// Instances still draining are measured in place; instances still
  /// running are reported failed.
  [[nodiscard]] ServiceResult collect();

 private:
  enum class State : std::uint8_t { kRunning, kDraining, kFailed };

  /// An instance's lineage tracker and the RunObserver that feeds it
  /// (collect_lineage runs on the simulator substrate).
  struct Lineage {
    Lineage(std::size_t group_size, const sim::Scheduler& clock);
    Lineage(const Lineage&) = delete;  // the observer points at tracker
    Lineage& operator=(const Lineage&) = delete;
    obs::LineageTracker tracker;
    obs::RunObserver observer;
  };

  /// One live instance: its own world over the shared members.
  struct Instance {
    Instance(std::uint32_t instance_id, const runner::ExperimentConfig& config,
             const Rng& root)
        : id(instance_id), world(config, root) {}

    std::uint32_t id = 0;
    State state = State::kRunning;
    SimTime launched_at = SimTime::zero();
    SimTime deadline = SimTime::zero();
    SimTime completed_at = SimTime::zero();
    std::size_t participants = 0;
    /// The instance's world. Its group is the instance's own membership
    /// view: participants alive, everyone else crashed. Shrinks with
    /// shared-group crashes while running; frozen from draining on (so
    /// measurement is stable).
    runner::World world;
    std::unique_ptr<protocols::StateArena> arena;
    std::unique_ptr<Lineage> lineage;
    std::unique_ptr<protocols::InvariantChecker> checker;
    std::unique_ptr<InstanceSender> sender;
    std::vector<std::unique_ptr<protocols::ProtocolNode>> nodes;
    /// Snapshot of the sender's stats, taken when the instance closes.
    net::NetworkStats network;
    /// A count_timers probe is in flight (UDP: it resolves asynchronously).
    bool count_outstanding = false;
  };

  /// A due launch: the instance id and its cohort, the members alive in the
  /// shared view at the due time.
  struct Due {
    std::uint32_t id = 0;
    std::vector<MemberId> cohort;
  };

  void on_launch_due(std::uint32_t id);
  void try_launches();
  void launch(const Due& due);
  void scan();
  void complete(Instance& inst, SimTime now);
  void fail(Instance& inst);
  /// Snapshots the sender's stats, closes the instance in the mux, and
  /// leaves the in-flight window.
  void close(Instance& inst, State state);
  /// The result fields every outcome reports (checker findings as of now).
  [[nodiscard]] InstanceResult row_of(const Instance& inst) const;
  /// The scheduler owning member m's timers (its shard reactor on UDP).
  [[nodiscard]] sim::Scheduler& scheduler_of(MemberId m) const;
  /// Runs `action` on member m's shard (inline in the simulator).
  void post(MemberId m, sim::Action action) const;
  [[nodiscard]] std::size_t shards() const;
  void probe_drain(Instance& inst);
  void on_drain_count(std::uint32_t id, std::size_t pending);
  /// Measures a drained instance into results_. With `teardown`, also
  /// destroys its nodes and recycles its arena (only legal when quiescent
  /// or after the event loop stopped).
  void finalize(Instance& inst, bool teardown);
  void fan_crash(MemberId member);
  void maybe_done();

  ServiceConfig config_;
  InstanceMux& mux_;
  membership::Group& shared_group_;
  Substrate substrate_;
  /// Engine bookkeeping runs here: the simulator, or the control shard.
  sim::Scheduler* control_ = nullptr;
  net::ChaosSpec chaos_;
  runner::CrashClock crash_clock_;

  SimTime scan_interval_ = SimTime::zero();
  SimTime instance_deadline_ = SimTime::zero();
  SimTime global_deadline_ = SimTime::zero();

  std::unordered_map<std::uint32_t, std::unique_ptr<Instance>> live_;
  std::vector<std::unique_ptr<Instance>> parked_;  ///< failed, kept to teardown
  std::deque<Due> deferred_;
  std::vector<std::unique_ptr<protocols::StateArena>> arena_pool_;
  std::vector<InstanceResult> results_;
  std::vector<SimTime> completion_times_;

  obs::ServiceTelemetry counts_;
  /// Written on the control thread; probed by every shard's run_until.
  std::atomic<bool> done_{false};
  bool collected_ = false;
};

/// One full service run on the simulator substrate. Deterministic in
/// config (including config.experiment.seed).
[[nodiscard]] ServiceResult run_service_experiment(const ServiceConfig& config);

/// Bundles the per-instance "gridbox-lineage/1" documents of a
/// collect_lineage run into one "gridbox-lineage-multi/1" container —
/// the multi-instance input of `gridbox_explain --instance ID`. Instances
/// without lineage (failed, or lineage off) are omitted.
[[nodiscard]] std::string lineage_multi_json(
    const std::vector<InstanceResult>& instances);

}  // namespace gridbox::service
