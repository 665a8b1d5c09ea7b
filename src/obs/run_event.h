// One run event: the record every observability consumer reads.
//
// RunObserver builds exactly one RunEvent per instrumentation hook (a
// transport decision, a phase-machine step, a membership crash) whose kind
// an armed consumer reads, stamps it with the run's one clock, and hands
// that same record to every armed consumer: the JSONL TraceSink, the
// FlightRecorder ring, the LineageTracker log and the CurveRecorder
// buckets. Each consumer names the kinds it reads (its kReads), reads the
// fields those kinds define and ignores the rest.
//
// A plain 32-byte value depending only on common/types.h, so a consumer
// keeps events by copy (lineage's raw log, the flight ring) with no
// per-event allocation.
#pragma once

#include <cstdint>

#include "src/common/types.h"

namespace gridbox::obs {

/// What happened. The six message kinds are transport decisions
/// (net::NetworkObserver::on_message), one per NetworkStats counter; the
/// rest are phase-machine steps and the membership crash. Values are
/// stable: the flight recorder's numbering.
enum class RunEventKind : std::uint8_t {
  kSend = 0,       ///< send() accepted the message
  kDrop = 1,       ///< the fault pipeline dropped it
  kDuplicate = 2,  ///< chaos scheduled one extra delivery
  kDeliver = 3,    ///< it reached a live, attached endpoint
  kDeadDest = 4,   ///< the destination was detached or crashed
  kMalformed = 5,  ///< the receiver's decoder rejected it
  kEnter = 6,
  kRound = 7,
  kGain = 8,
  kConclude = 9,
  kFinish = 10,
  kCrash = 11,
};

/// Field meaning by kind (unlisted fields stay zero):
///   message kinds  member = source, peer = destination, value = bytes
///   kEnter         member, phase
///   kRound         member, phase, value = fanout
///   kGain          member, peer = from, phase, value = index, votes,
///                  aux = gossip::GainKind
///   kConclude      member, phase, votes, aux = gossip::PhaseEnd
///   kFinish        member, votes
///   kCrash         member
struct RunEvent {
  SimTime at = SimTime::zero();
  RunEventKind kind = RunEventKind::kSend;
  std::uint8_t aux = 0;
  std::uint32_t member = 0;
  std::uint32_t peer = 0;
  std::uint32_t phase = 0;
  std::uint32_t value = 0;
  std::uint32_t votes = 0;
};
static_assert(sizeof(RunEvent) == 32, "RunEvent is a 32-byte record");

/// The kind's name in the trace and flight vocabularies (the trace writes
/// a remote gain as "learn").
[[nodiscard]] constexpr const char* kind_name(RunEventKind kind) {
  switch (kind) {
    case RunEventKind::kSend:
      return "send";
    case RunEventKind::kDrop:
      return "drop";
    case RunEventKind::kDuplicate:
      return "dup";
    case RunEventKind::kDeliver:
      return "recv";
    case RunEventKind::kDeadDest:
      return "dead";
    case RunEventKind::kMalformed:
      return "malformed";
    case RunEventKind::kEnter:
      return "enter";
    case RunEventKind::kRound:
      return "round";
    case RunEventKind::kGain:
      return "gain";
    case RunEventKind::kConclude:
      return "conclude";
    case RunEventKind::kFinish:
      return "finish";
    case RunEventKind::kCrash:
      return "crash";
  }
  return "?";
}

/// The six message kinds, kSend through kMalformed.
[[nodiscard]] constexpr bool is_message(RunEventKind kind) {
  return kind <= RunEventKind::kMalformed;
}

/// A set of kinds, one bit per kind: what a consumer reads.
using RunEventKinds = std::uint32_t;

[[nodiscard]] constexpr RunEventKinds kind_bit(RunEventKind kind) {
  return RunEventKinds{1} << static_cast<unsigned>(kind);
}

inline constexpr RunEventKinds kAllKinds =
    (kind_bit(RunEventKind::kCrash) << 1) - 1;

}  // namespace gridbox::obs
