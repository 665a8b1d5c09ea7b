#include "src/obs/run_observer.h"

#include <cstdio>

#include "src/common/ensure.h"
#include "src/obs/curves.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/lineage.h"
#include "src/obs/profile.h"

namespace gridbox::obs {

namespace {

const char* how_name(protocols::gossip::PhaseEnd how) {
  using protocols::gossip::PhaseEnd;
  switch (how) {
    case PhaseEnd::kTimeout:
      return "timeout";
    case PhaseEnd::kSaturated:
      return "saturated";
    case PhaseEnd::kAdopted:
      return "adopted";
  }
  return "?";
}

/// A network hook's trace line and message-shaped flight event.
void message_event(const RunObserver::Options& options, const char* name,
                   FlightRecorder::EventKind kind, const net::Message& message,
                   SimTime t) {
  const LayerScope layer(Layer::kObs);
  if (options.sink != nullptr) {
    options.sink->message_event(name, t, message.source, message.destination,
                                message.frame.size());
  }
  if (options.flight != nullptr) {
    FlightRecorder::Event e;
    e.at = t;
    e.kind = kind;
    e.a = message.source.value();
    e.b = message.destination.value();
    e.value = static_cast<std::uint32_t>(message.frame.size());
    options.flight->record(e);
  }
}

}  // namespace

RunObserver::RunObserver(Options options) : options_(options) {
  expects(options_.simulator != nullptr, "run observer: simulator required");
  member_phase_.assign(options_.group_size, 0);
}

SimTime RunObserver::now() const { return options_.simulator->now(); }

MetricsSnapshot RunObserver::metrics(const net::NetworkStats& network) const {
  MetricsSnapshot m;
  m.counters = {
      {"msgs_sent", network.messages_sent},
      {"msgs_dropped", network.messages_dropped},
      {"msgs_duplicated", network.messages_duplicated},
      {"msgs_delivered", network.messages_delivered},
      {"msgs_dead_dest", network.messages_dead_dest},
      {"msgs_malformed", network.messages_malformed},
      {"bytes_on_wire", network.bytes_sent},
      {"finishes", finishes_},
      {"crashes", crashes_},
  };
  std::uint64_t rounds = 0;
  std::uint64_t conclusions = 0;
  for (std::size_t phase = 0; phase < timeline_.phases.size(); ++phase) {
    const PhaseSpan& span = timeline_.phases[phase];
    rounds += span.rounds;
    conclusions += span.concluded;
    if (span.msgs_sent == 0) continue;
    char name[40];
    std::snprintf(name, sizeof(name), "msgs_sent_by_phase.%02zu", phase);
    m.counters.emplace(name, span.msgs_sent);
  }
  m.counters.emplace("gossip_rounds", rounds);
  m.counters.emplace("phase_conclusions", conclusions);
  m.histograms.emplace("gossip_fanout_hist", fanout_);
  return m;
}

void RunObserver::on_send(const net::Message& message, SimTime t) {
  const LayerScope layer(Layer::kObs);
  const std::size_t phase =
      message.source.value() < member_phase_.size()
          ? member_phase_[message.source.value()]
          : 0;
  timeline_.at_phase(phase).msgs_sent += 1;
  message_event(options_, "send", FlightRecorder::EventKind::kSend, message,
                t);
}

void RunObserver::on_drop(const net::Message& message, SimTime t) {
  message_event(options_, "drop", FlightRecorder::EventKind::kDrop, message,
                t);
}

void RunObserver::on_duplicate(const net::Message& message, SimTime t) {
  message_event(options_, "dup", FlightRecorder::EventKind::kDuplicate,
                message, t);
}

void RunObserver::on_deliver(const net::Message& message, SimTime t) {
  message_event(options_, "recv", FlightRecorder::EventKind::kDeliver,
                message, t);
}

void RunObserver::on_dead_destination(const net::Message& message, SimTime t) {
  message_event(options_, "dead", FlightRecorder::EventKind::kDeadDest,
                message, t);
}

void RunObserver::on_malformed(const net::Message& message, SimTime t) {
  message_event(options_, "malformed", FlightRecorder::EventKind::kMalformed,
                message, t);
}

void RunObserver::on_phase_entered(MemberId member, std::size_t phase) {
  const LayerScope layer(Layer::kObs);
  if (options_.next != nullptr) options_.next->on_phase_entered(member, phase);
  if (member.value() < member_phase_.size()) {
    member_phase_[member.value()] = phase;
  }
  PhaseSpan& span = timeline_.at_phase(phase);
  span.entered += 1;
  if (!span.any_entered || now() < span.first_entered) {
    span.first_entered = now();
    span.any_entered = true;
  }
  if (options_.sink != nullptr) {
    options_.sink->member_event("enter", now(), member,
                                static_cast<std::int64_t>(phase));
  }
  if (options_.flight != nullptr) {
    FlightRecorder::Event e;
    e.at = now();
    e.kind = FlightRecorder::EventKind::kPhaseEntered;
    e.a = member.value();
    e.phase = static_cast<std::uint32_t>(phase);
    options_.flight->record(e);
  }
}

void RunObserver::on_round_gossiped(MemberId member, std::size_t phase,
                                    std::uint32_t fanout) {
  const LayerScope layer(Layer::kObs);
  if (options_.next != nullptr) {
    options_.next->on_round_gossiped(member, phase, fanout);
  }
  fanout_.observe(fanout);
  timeline_.at_phase(phase).rounds += 1;
  // Rounds are the bulk of the stream; traced with the fanout so a timeline
  // reader can see gossip pressure per phase.
  if (options_.sink != nullptr) {
    options_.sink->member_event("round", now(), member,
                                static_cast<std::int64_t>(phase),
                                static_cast<std::int64_t>(fanout), "fanout");
  }
  if (options_.flight != nullptr) {
    FlightRecorder::Event e;
    e.at = now();
    e.kind = FlightRecorder::EventKind::kRound;
    e.a = member.value();
    e.phase = static_cast<std::uint32_t>(phase);
    e.value = fanout;
    options_.flight->record(e);
  }
}

void RunObserver::on_value_learned(MemberId member, std::size_t phase,
                                   std::uint32_t index) {
  const LayerScope layer(Layer::kObs);
  if (options_.next != nullptr) {
    options_.next->on_value_learned(member, phase, index);
  }
  if (options_.sink != nullptr) {
    options_.sink->member_event("learn", now(), member,
                                static_cast<std::int64_t>(phase),
                                static_cast<std::int64_t>(index), "index");
  }
}

void RunObserver::on_knowledge_gained(MemberId member, std::size_t phase,
                                      std::uint32_t index, MemberId from,
                                      std::uint32_t votes,
                                      protocols::gossip::GainKind kind) {
  const LayerScope layer(Layer::kObs);
  if (options_.next != nullptr) {
    options_.next->on_knowledge_gained(member, phase, index, from, votes,
                                       kind);
  }
  // The JSONL stream keeps its historical shape: one "learn" line per
  // remote gain, byte-identical to the pre-lineage traces. Local seeds,
  // adoptions and result pushes are visible through lineage/flight instead.
  if (options_.sink != nullptr &&
      kind == protocols::gossip::GainKind::kRemote) {
    options_.sink->member_event("learn", now(), member,
                                static_cast<std::int64_t>(phase),
                                static_cast<std::int64_t>(index), "index");
  }
  if (options_.lineage != nullptr) {
    options_.lineage->on_knowledge_gained(member, phase, index, from, votes,
                                          kind);
  }
  if (options_.curves != nullptr) options_.curves->record_gain(phase, kind);
  if (options_.flight != nullptr) {
    FlightRecorder::Event e;
    e.at = now();
    e.kind = FlightRecorder::EventKind::kGain;
    e.aux = static_cast<std::uint8_t>(kind);
    e.a = member.value();
    e.b = from.value();
    e.phase = static_cast<std::uint32_t>(phase);
    e.value = index;
    e.votes = votes;
    options_.flight->record(e);
  }
}

void RunObserver::on_phase_concluded(MemberId member, std::size_t phase,
                                     protocols::gossip::PhaseEnd how,
                                     std::uint32_t votes) {
  const LayerScope layer(Layer::kObs);
  if (options_.next != nullptr) {
    options_.next->on_phase_concluded(member, phase, how, votes);
  }
  PhaseSpan& span = timeline_.at_phase(phase);
  span.concluded += 1;
  span.votes_concluded_sum += votes;
  if (now() > span.last_concluded) span.last_concluded = now();
  if (options_.sink != nullptr) {
    options_.sink->member_event("conclude", now(), member,
                                static_cast<std::int64_t>(phase),
                                static_cast<std::int64_t>(votes), "votes",
                                how_name(how));
  }
  if (options_.lineage != nullptr) {
    options_.lineage->on_phase_concluded(member, phase, how, votes);
  }
  if (options_.flight != nullptr) {
    FlightRecorder::Event e;
    e.at = now();
    e.kind = FlightRecorder::EventKind::kConcluded;
    e.aux = static_cast<std::uint8_t>(how);
    e.a = member.value();
    e.phase = static_cast<std::uint32_t>(phase);
    e.votes = votes;
    options_.flight->record(e);
  }
}

void RunObserver::on_finished(MemberId member, std::uint32_t votes) {
  const LayerScope layer(Layer::kObs);
  if (options_.next != nullptr) options_.next->on_finished(member, votes);
  ++finishes_;
  if (options_.sink != nullptr) {
    options_.sink->member_event("finish", now(), member, TraceSink::kOmitted,
                                static_cast<std::int64_t>(votes), "votes");
  }
  if (options_.lineage != nullptr) {
    options_.lineage->on_finished(member, votes);
  }
  if (options_.flight != nullptr) {
    FlightRecorder::Event e;
    e.at = now();
    e.kind = FlightRecorder::EventKind::kFinished;
    e.a = member.value();
    e.votes = votes;
    options_.flight->record(e);
  }
}

void RunObserver::on_crash(MemberId member) {
  const LayerScope layer(Layer::kObs);
  ++crashes_;
  if (options_.sink != nullptr) {
    options_.sink->member_event("crash", now(), member);
  }
  if (options_.lineage != nullptr) options_.lineage->on_crash(member);
  if (options_.flight != nullptr) {
    FlightRecorder::Event e;
    e.at = now();
    e.kind = FlightRecorder::EventKind::kCrash;
    e.a = member.value();
    options_.flight->record(e);
  }
}

}  // namespace gridbox::obs
