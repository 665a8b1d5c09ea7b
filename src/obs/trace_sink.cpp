#include "src/obs/trace_sink.h"

#include <fstream>

#include "src/common/ensure.h"
#include "src/protocols/gossip/trace.h"

namespace gridbox::obs {

namespace {

/// TraceSink that owns its file stream.
class FileTraceSink final : public TraceSink {
 public:
  explicit FileTraceSink(const std::string& path)
      : file_(path, std::ios::binary) {
    expects(file_.good(), "trace sink: cannot open " + path);
    set_stream(file_);
  }

 private:
  std::ofstream file_;
};

/// A conclusion's PhaseEnd, by name.
const char* how_name(std::uint8_t how) {
  using protocols::gossip::PhaseEnd;
  switch (static_cast<PhaseEnd>(how)) {
    case PhaseEnd::kTimeout:
      return "timeout";
    case PhaseEnd::kSaturated:
      return "saturated";
    case PhaseEnd::kAdopted:
      return "adopted";
  }
  return "?";
}

}  // namespace

std::unique_ptr<TraceSink> TraceSink::to_file(const std::string& path) {
  return std::make_unique<FileTraceSink>(path);
}

void TraceSink::write_line(const std::string& line) {
  expects(out_ != nullptr, "trace sink has no stream");
  *out_ << line << '\n';
  ++lines_;
}

void TraceSink::write(const RunEvent& e) {
  using protocols::gossip::GainKind;
  if (e.kind == RunEventKind::kGain &&
      e.aux != static_cast<std::uint8_t>(GainKind::kRemote)) {
    return;
  }
  std::string line = "{\"t\":";
  line += std::to_string(e.at.ticks());
  line += ",\"ev\":\"";
  line += e.kind == RunEventKind::kGain ? "learn" : kind_name(e.kind);
  line += '"';
  const auto field = [&line](const char* key, std::uint32_t value) {
    line += ",\"";
    line += key;
    line += "\":";
    line += std::to_string(value);
  };
  if (is_message(e.kind)) {
    field("src", e.member);
    field("dst", e.peer);
    field("bytes", e.value);
  } else {
    field("m", e.member);
    switch (e.kind) {
      case RunEventKind::kEnter:
        field("phase", e.phase);
        break;
      case RunEventKind::kRound:
        field("phase", e.phase);
        field("fanout", e.value);
        break;
      case RunEventKind::kGain:
        field("phase", e.phase);
        field("index", e.value);
        break;
      case RunEventKind::kConclude:
        field("phase", e.phase);
        field("votes", e.votes);
        line += ",\"how\":\"";
        line += how_name(e.aux);
        line += '"';
        break;
      case RunEventKind::kFinish:
        field("votes", e.votes);
        break;
      default:
        break;
    }
  }
  line += '}';
  write_line(line);
}

}  // namespace gridbox::obs
