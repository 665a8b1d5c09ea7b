// RunObserver: one run's observability hub.
//
// Implements both instrumentation interfaces the substrates expose —
// net::NetworkObserver (transport decisions) and gossip::GossipTrace (phase
// machine) — plus on_crash for membership. Each hook folds its event into
// the PhaseTimeline (per-phase spans and message totals) and, when an armed
// consumer reads its kind, builds exactly one RunEvent, stamped by the
// run's one clock, and hands that record to every armed consumer: the
// JSONL trace, the flight recorder, lineage and curves. A RunObserver is
// only installed when something wants events.
//
// It counts only what no other structure counts: finishes, crashes and the
// per-round fanout histogram. metrics() derives everything else from the
// counter that owns it — message totals from NetworkStats, rounds,
// conclusions and per-phase sends from the timeline.
//
// Gossip events chain onward to `next`, so the observer can sit behind the
// InvariantChecker and in front of a caller-supplied trace. Per-phase
// message attribution uses the sender's current phase as reported by
// on_phase_entered (phase 0 = not in a phase yet / phase-less protocol).
#pragma once

#include <cstdint>
#include <vector>

#include "src/net/observer.h"
#include "src/net/stats.h"
#include "src/obs/metrics.h"
#include "src/obs/run_event.h"
#include "src/obs/timeline.h"
#include "src/protocols/gossip/trace.h"
#include "src/sim/scheduler.h"

namespace gridbox::obs {

class TraceSink;
class LineageTracker;
class CurveRecorder;
class FlightRecorder;

class RunObserver final : public net::NetworkObserver,
                          public protocols::gossip::GossipTrace {
 public:
  struct Options {
    /// The run's clock: stamps every phase-machine and crash event
    /// (transport events carry the network's own `now`). Required.
    const sim::Scheduler* clock = nullptr;
    std::size_t group_size = 0;
    protocols::gossip::GossipTrace* next = nullptr;  ///< chain tail
    // Consumers; each is nullable.
    TraceSink* sink = nullptr;
    LineageTracker* lineage = nullptr;
    CurveRecorder* curves = nullptr;
    FlightRecorder* flight = nullptr;
  };

  explicit RunObserver(Options options);

  // net::NetworkObserver
  void on_message(RunEventKind kind, const net::Message& message,
                  SimTime now) override;

  // gossip::GossipTrace
  void on_phase_entered(MemberId member, std::size_t phase) override;
  void on_round_gossiped(MemberId member, std::size_t phase,
                         std::uint32_t fanout) override;
  void on_knowledge_gained(MemberId member, std::size_t phase,
                           std::uint32_t index, MemberId from,
                           std::uint32_t votes,
                           protocols::gossip::GainKind kind) override;
  void on_phase_concluded(MemberId member, std::size_t phase,
                          protocols::gossip::PhaseEnd how,
                          std::uint32_t votes) override;
  void on_finished(MemberId member, std::uint32_t votes) override;

  /// Membership event (wired by the crash clock and chaos schedule of a
  /// one-shot run, and by the service for its instances; there is no
  /// substrate interface for it).
  void on_crash(MemberId member);

  /// The run's counters and fanout histogram: msgs_* and bytes_on_wire
  /// from `network` (the transport's own tallies), gossip_rounds,
  /// phase_conclusions and msgs_sent_by_phase.NN (non-zero phases only)
  /// from the timeline, finishes/crashes/gossip_fanout_hist from this
  /// observer. Gauges are the caller's.
  [[nodiscard]] MetricsSnapshot metrics(
      const net::NetworkStats& network) const;

  [[nodiscard]] const PhaseTimeline& timeline() const { return timeline_; }

  /// gossip_fanout_hist: per-round gossipee count (M in the paper, usually
  /// tiny), one bucket per bound plus overflow.
  [[nodiscard]] static MetricsSnapshot::HistogramData empty_fanout_hist() {
    return {{0, 1, 2, 3, 4, 6, 8, 16}, std::vector<std::uint64_t>(9, 0)};
  }

 private:
  /// Whether an armed consumer reads `kind`; a hook builds its event only
  /// then.
  [[nodiscard]] bool reads(RunEventKind kind) const {
    return (reads_ & kind_bit(kind)) != 0;
  }
  /// Hands `event` to every armed consumer.
  void emit(const RunEvent& event);

  Options options_;
  RunEventKinds reads_ = 0;  ///< union of the armed consumers' kReads
  PhaseTimeline timeline_;
  std::vector<std::size_t> member_phase_;  ///< current phase per member

  std::uint64_t finishes_ = 0;
  std::uint64_t crashes_ = 0;
  MetricsSnapshot::HistogramData fanout_ = empty_fanout_hist();
};

}  // namespace gridbox::obs
