// Flight recorder: a bounded in-memory ring of recent typed events.
//
// Unlike the TraceSink (which streams everything to JSONL and is too heavy
// to leave on in big sweeps), the flight recorder keeps only the last N
// events in fixed storage and is meant to be armed on runs that might die:
// when an invariant trips, the runner dumps a postmortem — the replay
// recipe (canonical config text, chaos spec, seed) plus the event tail
// leading up to the failure — so "what was the network doing right before
// member M violated the phase monotone?" has an answer without re-running.
//
// The ring holds RunObserver's RunEvents by copy (no strings, no heap per
// event once the ring reaches capacity): recording is a ring-slot write,
// and every kind the observer emits is kept.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/run_event.h"

namespace gridbox::obs {

class FlightRecorder {
 public:
  struct Options {
    /// Ring capacity (events kept). Must be > 0.
    std::size_t capacity = 4096;
    /// Replay recipe, embedded verbatim in every dump.
    std::string config_text;
    std::string chaos_spec;
    std::uint64_t seed = 0;
  };

  explicit FlightRecorder(Options options);

  /// The kinds record() keeps: all of them.
  static constexpr RunEventKinds kReads = kAllKinds;

  /// Ring-slot write; O(1), allocation-free once the ring is full.
  void record(const RunEvent& event);

  [[nodiscard]] std::uint64_t total_recorded() const { return total_; }
  [[nodiscard]] std::size_t kept() const;

  /// The postmortem document ("gridbox-flight/1"): replay recipe + tail,
  /// oldest event first.
  [[nodiscard]] std::string dump() const;

  /// dump() to a file; returns false (and leaves no partial file behind on
  /// open failure) when the path cannot be written.
  [[nodiscard]] bool dump_to_file(const std::string& path) const;

 private:
  Options options_;
  std::vector<RunEvent> ring_;
  std::uint64_t total_ = 0;
};

}  // namespace gridbox::obs
