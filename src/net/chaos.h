// Deterministic chaos injection: scripted, time-varying network adversity.
//
// The paper's robustness claim (§7, Figures 7–10) is evaluated there under
// static iid loss, one partition shape, and per-round crashes. A ChaosSpec
// scripts richer adversity — loss bursts (Gilbert–Elliott), per-link
// asymmetric loss, bounded extra delay/reorder, duplication, partition
// epochs, and scheduled crashes — as a small text artifact, so a scenario is
// reproducible bit-for-bit from (spec text, seed) at any host parallelism.
//
// RNG discipline: a ChaosSchedule owns independent derived streams for drop
// decisions, delay jitter, and duplication. Separated streams give exact
// metamorphic relations the test suite leans on: adding `dup` to a spec
// perturbs neither the drop pattern nor the jitter draws, so duplicated runs
// must produce identical estimates (idempotent merges), not just similar
// ones.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/net/fault_model.h"
#include "src/sim/simulator.h"

namespace gridbox::net {

/// Gilbert–Elliott two-state loss burst active during [from, to). The chain
/// starts in the good state at epoch entry and advances once per message
/// consulted while the epoch is active.
struct BurstEpoch {
  SimTime from = SimTime::zero();
  SimTime to = SimTime::zero();
  double good_loss = 0.0;  ///< drop probability in the good state
  double bad_loss = 0.0;   ///< drop probability in the bad state
  double go_bad = 0.0;     ///< P(good -> bad) per message
  double go_good = 0.0;    ///< P(bad -> good) per message

  friend bool operator==(const BurstEpoch&, const BurstEpoch&) = default;
};

/// Directed per-link loss override (source -> destination only, so loss can
/// be asymmetric). Takes precedence over every other loss source.
struct LinkLoss {
  MemberId source;
  MemberId destination;
  double loss = 0.0;

  friend bool operator==(const LinkLoss&, const LinkLoss&) = default;
};

/// Extra delivery delay: with `probability`, a delivered message is held an
/// additional Uniform[lo, hi] — bounded delay that also induces reordering.
struct JitterSpec {
  double probability = 0.0;  ///< 0 = off
  SimTime lo = SimTime::zero();
  SimTime hi = SimTime::zero();

  friend bool operator==(const JitterSpec&, const JitterSpec&) = default;
};

/// Duplication: with `probability`, a *delivered* message is delivered
/// `extra` additional times, each at the original delivery time plus
/// Uniform[0, spread]. Duplicates are only ever made of messages that
/// survive the loss pipeline and never precede the original, so they model
/// a transport re-delivering stale copies. With spread=0 they are exact
/// no-ops (merges are idempotent and the receiver's phase cannot move
/// between same-tick deliveries; tested bit-for-bit). With spread>0 a copy
/// may land after the receiver has *entered* the message's phase and be
/// absorbed where the original was dropped as stale — legitimate extra
/// knowledge, never double counting (the audit stays clean; tested).
struct DuplicationSpec {
  double probability = 0.0;  ///< 0 = off
  std::uint32_t extra = 1;
  SimTime spread = SimTime::zero();

  friend bool operator==(const DuplicationSpec&, const DuplicationSpec&) =
      default;
};

/// Soft-partition epoch active during [from, to): members with id value <
/// boundary are side 0, the rest side 1. Cross-side messages drop with
/// `cross_loss`; same-side messages drop with `within_loss` when
/// `has_within`, else fall through to bursts / base loss.
struct PartitionEpoch {
  SimTime from = SimTime::zero();
  SimTime to = SimTime::zero();
  bool boundary_is_half = true;  ///< boundary = group_size / 2
  MemberId::underlying boundary = 0;
  double cross_loss = 0.0;
  double within_loss = 0.0;
  bool has_within = false;

  friend bool operator==(const PartitionEpoch&, const PartitionEpoch&) =
      default;
};

/// Scheduled crash (without recovery, matching the paper's model).
struct CrashEvent {
  MemberId member;
  SimTime at = SimTime::zero();

  friend bool operator==(const CrashEvent&, const CrashEvent&) = default;
};

/// Scheduled membership churn: a member joining the group or recovering from
/// a crash at a scripted time. Only the service runtime (src/service) honors
/// these — the paper's one-shot protocol has no epoch boundary for a joiner
/// to enter at, so run_experiment/run_udp_experiment reject specs containing
/// them. Churn is scripted, never randomized, so adding a join/recover line
/// to a spec perturbs no RNG stream of the loss/jitter/dup pipeline.
struct ChurnEvent {
  MemberId member;
  SimTime at = SimTime::zero();

  friend bool operator==(const ChurnEvent&, const ChurnEvent&) = default;
};

/// A parsed chaos scenario. Value-semantic and serializable: parse() and
/// to_text() round-trip, so a spec is a checked-in, replayable artifact.
/// Grammar (one directive per line, '#' comments — see docs/chaos.md):
///
///   loss P
///   burst FROMus..TOus good=P bad=P go-bad=P go-good=P
///   link MA->MB P
///   jitter p=P LOus..HIus
///   dup p=P extra=N spread=Tus
///   partition FROMus..TOus boundary=half|INT cross=P [within=P]
///   crash MID at=Tus
///   join MID at=Tus
///   recover MID at=Tus
///
/// Times accept `us`, `ms`, or `s` suffixes (bare integers are µs) and
/// serialize canonically in µs.
struct ChaosSpec {
  std::optional<double> base_loss;  ///< replaces the run's static FaultModel
  std::vector<BurstEpoch> bursts;
  std::vector<LinkLoss> links;
  JitterSpec jitter;
  DuplicationSpec dup;
  std::vector<PartitionEpoch> partitions;
  std::vector<CrashEvent> crashes;
  std::vector<ChurnEvent> joins;     ///< service-mode only (see ChurnEvent)
  std::vector<ChurnEvent> recovers;  ///< service-mode only (see ChurnEvent)

  /// Parses spec text; throws PreconditionError with a line-numbered message
  /// on malformed input.
  [[nodiscard]] static ChaosSpec parse(const std::string& text);

  /// Canonical serialization; parse(to_text()) == *this.
  [[nodiscard]] std::string to_text() const;

  /// True if any directive affects message handling (everything but
  /// crashes and churn).
  [[nodiscard]] bool affects_network() const;

  /// True if the spec scripts membership churn (join/recover directives).
  [[nodiscard]] bool has_churn() const;

  [[nodiscard]] bool empty() const;

  friend bool operator==(const ChaosSpec&, const ChaosSpec&) = default;
};

/// A random but well-formed spec over the given group and time horizon, for
/// fuzzing: every draw comes from `rng`, so a corpus is reproducible from
/// seeds alone. Generated specs contain only protocol-legal adversity
/// (loss, delay, duplication, partitions, crashes — never forged bytes).
[[nodiscard]] ChaosSpec random_chaos_spec(Rng& rng, std::size_t group_size,
                                          SimTime horizon);

/// What the chaos layer decided for one send.
struct ChaosDecision {
  bool drop = false;
  SimTime extra_delay = SimTime::zero();  ///< added to the model latency
  /// Extra deliveries, each at the original delivery time plus this offset
  /// (offsets are >= 0: a duplicate never precedes its original).
  std::vector<SimTime> duplicate_delays;
};

/// Runtime engine for a ChaosSpec: holds the run's static FaultModel and
/// scripts time-varying adversity on top of it from the simulator clock.
/// Owned and consulted by SimNetwork (install_chaos); per-run construction
/// keeps multi-run sweeps bitwise deterministic at any --jobs.
class ChaosSchedule {
 public:
  /// `base` is the static loss consulted when no directive claims a message
  /// (the zero value for none); a `loss` directive replaces it with iid loss.
  /// `group_size` resolves `boundary=half`. `rng` seeds the three
  /// independent decision streams.
  ChaosSchedule(ChaosSpec spec, FaultModel base, std::size_t group_size,
                Rng rng);

  /// Clock used to evaluate time-varying epochs; SimNetwork binds this to
  /// its simulator on install.
  void bind_clock(std::function<SimTime()> clock);

  /// Consulted once per send, in send order.
  [[nodiscard]] ChaosDecision on_send(MemberId source, MemberId destination);

  [[nodiscard]] const ChaosSpec& spec() const { return spec_; }

 private:
  [[nodiscard]] bool decide_drop(MemberId source, MemberId destination,
                                 SimTime now);

  ChaosSpec spec_;
  FaultModel base_;
  std::size_t group_size_;
  Rng drop_rng_;
  Rng jitter_rng_;
  Rng dup_rng_;
  std::function<SimTime()> clock_;
  std::vector<bool> burst_bad_;      // GE chain state per burst epoch
  std::vector<bool> burst_active_;   // was the epoch active last time we saw it
  std::unordered_map<std::uint64_t, double> link_loss_;
};

/// Schedules the spec's crash events on the simulator. `crash` is invoked at
/// each event's time (callers bind it to membership::Group::crash); the
/// callback form keeps src/net independent of src/membership.
void schedule_chaos_crashes(const ChaosSpec& spec, sim::Simulator& simulator,
                            std::function<void(MemberId)> crash);

}  // namespace gridbox::net
