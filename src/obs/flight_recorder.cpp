#include "src/obs/flight_recorder.h"

#include <cstdio>
#include <fstream>
#include <utility>

#include "src/common/ensure.h"

namespace gridbox::obs {

FlightRecorder::FlightRecorder(Options options)
    : options_(std::move(options)) {
  expects(options_.capacity > 0, "flight recorder needs a capacity");
  ring_.reserve(options_.capacity);
}

void FlightRecorder::record(const RunEvent& event) {
  if (ring_.size() < options_.capacity) {
    ring_.push_back(event);
  } else {
    ring_[total_ % options_.capacity] = event;
  }
  ++total_;
}

std::size_t FlightRecorder::kept() const { return ring_.size(); }

std::string FlightRecorder::dump() const {
  std::string out;
  out += "gridbox-flight/1\n";
  out += "seed " + std::to_string(options_.seed) + "\n";
  out += "events_recorded " + std::to_string(total_) + "\n";
  out += "events_kept " + std::to_string(ring_.size()) + "\n";
  out += "--- config ---\n";
  out += options_.config_text;
  if (!options_.config_text.empty() && options_.config_text.back() != '\n') {
    out += '\n';
  }
  out += "--- chaos ---\n";
  out += options_.chaos_spec;
  if (!options_.chaos_spec.empty() && options_.chaos_spec.back() != '\n') {
    out += '\n';
  }
  out += "--- tail ---\n";

  // Oldest first. When the ring wrapped, the oldest slot is total_ % cap.
  const std::size_t n = ring_.size();
  const std::size_t start =
      total_ > n ? static_cast<std::size_t>(total_ % options_.capacity) : 0;
  char line[160];
  for (std::size_t i = 0; i < n; ++i) {
    const RunEvent& e = ring_[(start + i) % n];
    switch (e.kind) {
      case RunEventKind::kSend:
      case RunEventKind::kDrop:
      case RunEventKind::kDuplicate:
      case RunEventKind::kDeliver:
      case RunEventKind::kDeadDest:
      case RunEventKind::kMalformed:
        std::snprintf(line, sizeof(line),
                      "t=%lluus %s src=%u dst=%u bytes=%u\n",
                      static_cast<unsigned long long>(e.at.ticks()),
                      kind_name(e.kind), e.member, e.peer, e.value);
        break;
      case RunEventKind::kEnter:
        std::snprintf(line, sizeof(line), "t=%lluus enter m=%u phase=%u\n",
                      static_cast<unsigned long long>(e.at.ticks()), e.member,
                      e.phase);
        break;
      case RunEventKind::kRound:
        std::snprintf(line, sizeof(line),
                      "t=%lluus round m=%u phase=%u fanout=%u\n",
                      static_cast<unsigned long long>(e.at.ticks()), e.member,
                      e.phase, e.value);
        break;
      case RunEventKind::kGain:
        std::snprintf(line, sizeof(line),
                      "t=%lluus gain m=%u phase=%u index=%u from=%u votes=%u "
                      "kind=%u\n",
                      static_cast<unsigned long long>(e.at.ticks()), e.member,
                      e.phase, e.value, e.peer, e.votes, e.aux);
        break;
      case RunEventKind::kConclude:
        std::snprintf(line, sizeof(line),
                      "t=%lluus conclude m=%u phase=%u votes=%u how=%u\n",
                      static_cast<unsigned long long>(e.at.ticks()), e.member,
                      e.phase, e.votes, e.aux);
        break;
      case RunEventKind::kFinish:
        std::snprintf(line, sizeof(line), "t=%lluus finish m=%u votes=%u\n",
                      static_cast<unsigned long long>(e.at.ticks()), e.member,
                      e.votes);
        break;
      case RunEventKind::kCrash:
        std::snprintf(line, sizeof(line), "t=%lluus crash m=%u\n",
                      static_cast<unsigned long long>(e.at.ticks()), e.member);
        break;
    }
    out += line;
  }
  return out;
}

bool FlightRecorder::dump_to_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const std::string text = dump();
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  return static_cast<bool>(out);
}

}  // namespace gridbox::obs
