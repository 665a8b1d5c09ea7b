// Experiment configuration: everything that defines one simulated run.
//
// Defaults reproduce the paper's §7 setup: N = 200, ucastl = 0.25,
// pf = 0.001, K = 4, M = 2, C = 1.0, fair hash, simultaneous start,
// asynchronous phase bumping, crash without recovery.
#pragma once

#include <cstdint>
#include <string>

#include "src/agg/aggregate.h"
#include "src/common/types.h"
#include "src/obs/telemetry.h"
#include "src/protocols/baseline/centralized.h"
#include "src/protocols/baseline/committee.h"
#include "src/protocols/baseline/fully_distributed.h"
#include "src/protocols/gossip/gossip_config.h"

namespace gridbox::obs {
class TraceSink;
class LineageTracker;
class CurveRecorder;
class FlightRecorder;
}  // namespace gridbox::obs

namespace gridbox::runner {

enum class ProtocolKind : std::uint8_t {
  kHierGossip = 0,
  kFullyDistributed = 1,
  kCentralized = 2,
  kLeaderElection = 3,
  kCommittee = 4,
};

[[nodiscard]] std::string to_string(ProtocolKind kind);

enum class HashKind : std::uint8_t { kFair = 0, kTopoAware = 1 };

enum class WorkloadKind : std::uint8_t {
  kUniform = 0,  ///< iid Uniform(vote_lo, vote_hi)
  kNormal = 1,   ///< iid Normal(vote_mu, vote_sigma)
  kField = 2,    ///< smooth spatial field + sensor noise (needs positions)
};

struct ExperimentConfig {
  ProtocolKind protocol = ProtocolKind::kHierGossip;
  std::size_t group_size = 200;

  // Network (paper defaults).
  double ucast_loss = 0.25;       ///< iid unicast loss probability
  double partition_loss = -1.0;   ///< cross-partition loss; < 0 = no partition
  SimTime latency_lo = SimTime::micros(200);
  SimTime latency_hi = SimTime::micros(2'000);

  // Membership. Paper: crash without recovery.
  double crash_probability = 0.001;  ///< pf, per member per gossip round

  /// Fraction of the other members each member's view contains (1.0 =
  /// complete views, the paper's baseline assumption). Lower values exercise
  /// §2's relaxation: "this can be relaxed in our final hierarchical
  /// gossiping solution" — gossip needs only *enough* peers per phase, not
  /// all of them. Each member always knows itself; partial views are drawn
  /// independently per member. Only meaningful for ProtocolKind::kHierGossip
  /// and kFullyDistributed; the leader/committee baselines require complete
  /// consistent views (§6.2) and reject anything less.
  double view_coverage = 1.0;

  // Hierarchy / hashing.
  HashKind hash = HashKind::kFair;
  /// Hierarchy fanout K for the hierarchical baselines (leader/committee);
  /// hier-gossip takes K from gossip.k instead.
  std::uint32_t hierarchy_k = 4;
  bool assign_positions = false;  ///< scatter members in the unit square

  // Aggregate + workload.
  agg::AggregateKind aggregate = agg::AggregateKind::kAverage;
  WorkloadKind workload = WorkloadKind::kUniform;
  double vote_lo = 15.0;   ///< e.g. temperatures in [15, 35)
  double vote_hi = 35.0;
  double vote_mu = 25.0;
  double vote_sigma = 5.0;

  // Per-protocol tuning.
  protocols::gossip::GossipConfig gossip;
  protocols::baseline::FullyDistributedConfig fully_distributed;
  protocols::baseline::CentralizedConfig centralized;
  protocols::baseline::CommitteeConfig committee;

  // Instrumentation.
  bool audit = false;  ///< attach provenance tokens & verify no double count

  /// Collect a metrics snapshot for the run (RunResult::metrics) plus the
  /// phase timeline (RunResult::timeline). Off by default: benches measure
  /// the uninstrumented hot path unless asked otherwise. Metric values are a
  /// pure function of (config, seed) — bitwise-identical at any `jobs`.
  bool collect_metrics = false;

  /// Structured JSONL trace sink for this run (non-owning; may be null).
  /// One sink serves one run: sweeps leave this null and per-run tracing is
  /// wired by the caller that owns the sink (see cli --trace-out).
  obs::TraceSink* trace_sink = nullptr;

  /// Causal vote-lineage tracker for this run (non-owning; may be null).
  /// run_experiment installs the run clock and feeds it every knowledge-gain
  /// / conclude / finish / crash event (see cli --lineage).
  obs::LineageTracker* lineage = nullptr;

  /// Epidemic-curve recorder for this run (non-owning; may be null).
  /// run_experiment installs the run clock, protocol-aware denominators and
  /// the analytic model parameters (see cli --curves-out).
  obs::CurveRecorder* curves = nullptr;

  /// Flight recorder for this run (non-owning; may be null). Receives every
  /// transport + phase-machine event into a bounded ring; the CLI dumps it
  /// when a run throws InvariantError (see cli --flight-recorder).
  obs::FlightRecorder* flight = nullptr;

  /// Live telemetry sampling (src/obs/telemetry.h): when enabled, the
  /// runtime arms one TelemetryLane per shard (one lane on the simulator)
  /// and a control-thread sampler streams gridbox-telemetry/1 JSONL on
  /// telemetry.interval. Execution-side instrumentation like the pointers
  /// above: excluded from config_canonical_text, never affects results.
  obs::TelemetryConfig telemetry;

  /// Aggregate hot-path scoped timers for this run (RunResult::profile).
  /// Wall-clock telemetry: counts are deterministic, elapsed times are not.
  bool profile = false;

  /// Chaos spec text (see docs/chaos.md); empty = no chaos. Parsed once per
  /// run; network-affecting directives replace the static ucast/partition
  /// loss pipeline for the run, crashes schedule on the simulator clock.
  std::string chaos_spec;

  /// Run the always-on invariant checker (hier-gossip runs only; the
  /// baselines have no trace hooks). Violations throw InvariantError out of
  /// the run. On by default: a run that breaks an invariant is not a result.
  bool check_invariants = true;

  std::uint64_t seed = 1;

  /// Host-side execution knob: worker threads used when this config is the
  /// base of a multi-run sweep (run_sweep / gridbox_sim --runs). 0 = auto
  /// (GRIDBOX_JOBS env var, else hardware_concurrency). Never affects
  /// simulated results — runs are seeded in closed form, so any jobs value
  /// produces bitwise-identical measurements.
  std::size_t jobs = 0;

  /// `jobs` with the auto default resolved (env var / hardware_concurrency).
  [[nodiscard]] std::size_t resolved_jobs() const;

  /// Round duration of the configured protocol (drives the crash clock).
  [[nodiscard]] SimTime round_duration() const;
};

/// Canonical one-line `key=value` serialization of every knob that affects
/// simulated results (execution knobs like jobs and instrumentation toggles
/// are excluded — they never change what a run computes). Two configs with
/// the same text produce identical runs at the same seed; the run manifest
/// stores this text and its FNV-1a hash as the config fingerprint.
[[nodiscard]] std::string config_canonical_text(const ExperimentConfig& config);

}  // namespace gridbox::runner
