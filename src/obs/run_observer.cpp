#include "src/obs/run_observer.h"

#include <cstdio>

#include "src/common/ensure.h"
#include "src/obs/curves.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/lineage.h"
#include "src/obs/profile.h"
#include "src/obs/trace_sink.h"

namespace gridbox::obs {

namespace {

/// A phase-machine or crash event with its common fields set.
RunEvent member_event(RunEventKind kind, SimTime at, MemberId member,
                      std::size_t phase = 0) {
  RunEvent e;
  e.at = at;
  e.kind = kind;
  e.member = member.value();
  e.phase = static_cast<std::uint32_t>(phase);
  return e;
}

}  // namespace

RunObserver::RunObserver(Options options) : options_(options) {
  expects(options_.clock != nullptr, "run observer: clock required");
  member_phase_.assign(options_.group_size, 0);
  if (options_.sink != nullptr) reads_ |= TraceSink::kReads;
  if (options_.flight != nullptr) reads_ |= FlightRecorder::kReads;
  if (options_.lineage != nullptr) reads_ |= LineageTracker::kReads;
  if (options_.curves != nullptr) reads_ |= CurveRecorder::kReads;
}

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

void RunObserver::emit(const RunEvent& e) {
  if (options_.sink != nullptr) options_.sink->write(e);
  if (options_.flight != nullptr) options_.flight->record(e);
  if (options_.lineage != nullptr) options_.lineage->record(e);
  if (options_.curves != nullptr) options_.curves->record(e);
}

void RunObserver::on_message(RunEventKind kind, const net::Message& message,
                             SimTime now) {
  const LayerScope layer(Layer::kObs);
  if (kind == RunEventKind::kSend) {
    const std::size_t source = message.source.value();
    timeline_.at_phase(source < member_phase_.size() ? member_phase_[source]
                                                     : 0)
        .msgs_sent += 1;
  }
  if (!reads(kind)) return;
  RunEvent e;
  e.at = now;
  e.kind = kind;
  e.member = message.source.value();
  e.peer = message.destination.value();
  e.value = static_cast<std::uint32_t>(message.frame.size());
  emit(e);
}

void RunObserver::on_phase_entered(MemberId member, std::size_t phase) {
  const LayerScope layer(Layer::kObs);
  if (options_.next != nullptr) options_.next->on_phase_entered(member, phase);
  const SimTime at = options_.clock->now();
  if (member.value() < member_phase_.size()) {
    member_phase_[member.value()] = phase;
  }
  PhaseSpan& span = timeline_.at_phase(phase);
  span.entered += 1;
  if (!span.any_entered || at < span.first_entered) {
    span.first_entered = at;
    span.any_entered = true;
  }
  if (!reads(RunEventKind::kEnter)) return;
  emit(member_event(RunEventKind::kEnter, at, member, phase));
}

void RunObserver::on_round_gossiped(MemberId member, std::size_t phase,
                                    std::uint32_t fanout) {
  const LayerScope layer(Layer::kObs);
  if (options_.next != nullptr) {
    options_.next->on_round_gossiped(member, phase, fanout);
  }
  fanout_.observe(fanout);
  timeline_.at_phase(phase).rounds += 1;
  if (!reads(RunEventKind::kRound)) return;
  RunEvent e = member_event(RunEventKind::kRound, options_.clock->now(),
                            member, phase);
  e.value = fanout;
  emit(e);
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
  if (!reads(RunEventKind::kGain)) return;
  RunEvent e = member_event(RunEventKind::kGain, options_.clock->now(),
                            member, phase);
  e.aux = static_cast<std::uint8_t>(kind);
  e.peer = from.value();
  e.value = index;
  e.votes = votes;
  emit(e);
}

void RunObserver::on_phase_concluded(MemberId member, std::size_t phase,
                                     protocols::gossip::PhaseEnd how,
                                     std::uint32_t votes) {
  const LayerScope layer(Layer::kObs);
  if (options_.next != nullptr) {
    options_.next->on_phase_concluded(member, phase, how, votes);
  }
  const SimTime at = options_.clock->now();
  PhaseSpan& span = timeline_.at_phase(phase);
  span.concluded += 1;
  span.votes_concluded_sum += votes;
  if (at > span.last_concluded) span.last_concluded = at;
  if (!reads(RunEventKind::kConclude)) return;
  RunEvent e = member_event(RunEventKind::kConclude, at, member, phase);
  e.aux = static_cast<std::uint8_t>(how);
  e.votes = votes;
  emit(e);
}

void RunObserver::on_finished(MemberId member, std::uint32_t votes) {
  const LayerScope layer(Layer::kObs);
  if (options_.next != nullptr) options_.next->on_finished(member, votes);
  ++finishes_;
  if (!reads(RunEventKind::kFinish)) return;
  RunEvent e = member_event(RunEventKind::kFinish, options_.clock->now(),
                            member);
  e.votes = votes;
  emit(e);
}

void RunObserver::on_crash(MemberId member) {
  const LayerScope layer(Layer::kObs);
  ++crashes_;
  if (!reads(RunEventKind::kCrash)) return;
  emit(member_event(RunEventKind::kCrash, options_.clock->now(), member));
}

}  // namespace gridbox::obs
