// Structured run tracing: a JSONL event stream.
//
// Every line is one self-contained JSON object with at minimum {"t": <sim
// time in microsecond ticks>, "ev": <event name>}; the remaining fields are
// integers identifying the actors (member ids, phases, byte counts). The
// stream is integer-only and emitted in simulation event order, so a replay
// of the same (config, seed) produces byte-identical output — the trace
// golden tests pin that property.
//
// Event vocabulary (docs/observability.md), one line per RunEvent kind:
//   send / drop / dup / recv / dead / malformed   — transport decisions
//   enter / round / learn / conclude / finish     — gossip phase machine
//   crash                                         — membership
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>

#include "src/obs/run_event.h"

namespace gridbox::obs {

class TraceSink {
 public:
  /// Writes to `out`, which must outlive the sink. The sink never flushes;
  /// the stream's own buffering applies.
  explicit TraceSink(std::ostream& out) : out_(&out) {}

  /// Opens `path` for writing and owns the stream. Throws PreconditionError
  /// when the file cannot be opened.
  [[nodiscard]] static std::unique_ptr<TraceSink> to_file(
      const std::string& path);

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;
  virtual ~TraceSink() = default;

  /// The kinds write() reads: all of them.
  static constexpr RunEventKinds kReads = kAllKinds;

  /// One line per event in the vocabulary above. A gain is written as a
  /// "learn" line only when it came over the wire (GainKind::kRemote): the
  /// stream keeps its pre-lineage shape, and local seeds, adoptions and
  /// result pushes are visible through lineage and the flight recorder.
  void write(const RunEvent& event);

  [[nodiscard]] std::uint64_t lines_written() const { return lines_; }

 protected:
  TraceSink() = default;
  void set_stream(std::ostream& out) { out_ = &out; }

 private:
  void write_line(const std::string& line);

  std::ostream* out_ = nullptr;
  std::uint64_t lines_ = 0;
};

}  // namespace gridbox::obs
