// RunObserver: one run's observability hub.
//
// Implements both instrumentation interfaces the substrates expose —
// net::NetworkObserver (transport decisions) and gossip::GossipTrace (phase
// machine) — and fans each event into the PhaseTimeline (per-phase spans
// and message totals) and the optional sinks (JSONL trace, lineage, curves,
// flight recorder). A RunObserver is only installed when something wants
// events.
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
#include "src/obs/timeline.h"
#include "src/obs/trace_sink.h"
#include "src/protocols/gossip/trace.h"
#include "src/sim/simulator.h"

namespace gridbox::obs {

class LineageTracker;
class CurveRecorder;
class FlightRecorder;

class RunObserver final : public net::NetworkObserver,
                          public protocols::gossip::GossipTrace {
 public:
  struct Options {
    TraceSink* sink = nullptr;                    ///< nullable
    const sim::Simulator* simulator = nullptr;    ///< clock for trace stamps
    std::size_t group_size = 0;
    protocols::gossip::GossipTrace* next = nullptr;  ///< chain tail
    LineageTracker* lineage = nullptr;            ///< nullable
    CurveRecorder* curves = nullptr;              ///< nullable
    FlightRecorder* flight = nullptr;             ///< nullable
  };

  explicit RunObserver(Options options);

  // net::NetworkObserver
  void on_send(const net::Message& message, SimTime now) override;
  void on_drop(const net::Message& message, SimTime now) override;
  void on_duplicate(const net::Message& message, SimTime now) override;
  void on_deliver(const net::Message& message, SimTime now) override;
  void on_dead_destination(const net::Message& message, SimTime now) override;
  void on_malformed(const net::Message& message, SimTime now) override;

  // gossip::GossipTrace
  void on_phase_entered(MemberId member, std::size_t phase) override;
  void on_round_gossiped(MemberId member, std::size_t phase,
                         std::uint32_t fanout) override;
  void on_value_learned(MemberId member, std::size_t phase,
                        std::uint32_t index) override;
  void on_knowledge_gained(MemberId member, std::size_t phase,
                           std::uint32_t index, MemberId from,
                           std::uint32_t votes,
                           protocols::gossip::GainKind kind) override;
  void on_phase_concluded(MemberId member, std::size_t phase,
                          protocols::gossip::PhaseEnd how,
                          std::uint32_t votes) override;
  void on_finished(MemberId member, std::uint32_t votes) override;

  /// Membership event (wired by the experiment's crash clock and chaos
  /// schedule; there is no substrate interface for it).
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
  [[nodiscard]] SimTime now() const;

  Options options_;
  PhaseTimeline timeline_;
  std::vector<std::size_t> member_phase_;  ///< current phase per member

  std::uint64_t finishes_ = 0;
  std::uint64_t crashes_ = 0;
  MetricsSnapshot::HistogramData fanout_ = empty_fanout_hist();
};

}  // namespace gridbox::obs
