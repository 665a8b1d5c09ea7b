#include "src/protocols/invariant_checker.h"

#include <algorithm>
#include <utility>

#include "src/common/ensure.h"
#include "src/obs/profile.h"

namespace gridbox::protocols {

InvariantChecker::InvariantChecker(Config config)
    : config_(std::move(config)) {
  expects(config_.group_size > 0, "invariant checker needs a group size");
  // One extra overflow slot for out-of-range ids: the vector never grows
  // again, so shard threads can index into it without synchronization.
  states_.resize(config_.group_size + 1);
  if (config_.audit != nullptr) {
    audit_violations_seen_ = config_.audit->violation_count();
  }
}

SimTime InvariantChecker::now() const {
  return config_.scheduler != nullptr ? config_.scheduler->now()
                                      : SimTime::zero();
}

InvariantChecker::MemberState& InvariantChecker::state_of(MemberId member) {
  // Out-of-range member ids clamp to the shared overflow slot rather than
  // an OOB access (or a resize, which would race the other shards); the
  // range violation itself is reported by the caller.
  const std::size_t i =
      std::min<std::size_t>(member.value(), config_.group_size);
  return states_[i];
}

void InvariantChecker::check_deadline(MemberId member, std::size_t phase,
                                      const char* event) {
  if (config_.deadline == SimTime::zero()) return;
  const SimTime t = now();
  if (t > config_.deadline) {
    violate(member, phase,
            std::string(event) + " at t=" + std::to_string(t.ticks()) +
                "us, past the termination deadline " +
                std::to_string(config_.deadline.ticks()) +
                "us (Theorem 1 bound)");
  }
}

void InvariantChecker::violate(MemberId member, std::size_t phase,
                               std::string what) {
  InvariantViolation v;
  v.member = member;
  v.phase = phase;
  v.at = now();
  v.what = std::move(what);
  {
    std::unique_lock<std::mutex> lock;
    if (config_.concurrent) lock = std::unique_lock<std::mutex>(mutex_);
    violations_.push_back(v);
  }
  if (config_.fail_fast) {
    throw InvariantError("run invariant violated at member M" +
                         std::to_string(member.value()) + " phase " +
                         std::to_string(phase) + " t=" +
                         std::to_string(v.at.ticks()) + "us: " + v.what);
  }
}

void InvariantChecker::on_phase_entered(MemberId member, std::size_t phase) {
  const obs::LayerScope layer(obs::Layer::kProtocolsCheck);
  if (config_.next != nullptr) config_.next->on_phase_entered(member, phase);
  MemberState& s = state_of(member);
  check_deadline(member, phase, "phase entered");
  if (member.value() >= config_.group_size) {
    violate(member, phase, "phase entered by out-of-range member id");
  }
  if (phase == 0) violate(member, phase, "entered phase 0 (phases are 1-based)");
  if (config_.num_phases != 0 && phase > config_.num_phases) {
    violate(member, phase,
            "entered phase beyond num_phases=" +
                std::to_string(config_.num_phases));
  }
  if (s.finished) violate(member, phase, "phase entered after termination");
  if (phase <= s.last_entered) {
    violate(member, phase,
            "phase index not monotone: entered phase " +
                std::to_string(phase) + " after phase " +
                std::to_string(s.last_entered));
  }
  s.last_entered = phase;
}

void InvariantChecker::on_round_gossiped(MemberId member, std::size_t phase,
                                         std::uint32_t fanout) {
  const obs::LayerScope layer(obs::Layer::kProtocolsCheck);
  if (config_.next != nullptr) {
    config_.next->on_round_gossiped(member, phase, fanout);
  }
  check_deadline(member, phase, "round gossiped");
  // A member can never contact more gossipees than there are other members;
  // M itself is not known here (it is a protocol knob, not a hierarchy one).
  if (config_.group_size != 0 && fanout >= config_.group_size) {
    violate(member, phase,
            "round contacted " + std::to_string(fanout) +
                " gossipees in a group of " +
                std::to_string(config_.group_size));
  }
}

void InvariantChecker::on_value_learned(MemberId member, std::size_t phase,
                                        std::uint32_t index) {
  const obs::LayerScope layer(obs::Layer::kProtocolsCheck);
  if (config_.next != nullptr) {
    config_.next->on_value_learned(member, phase, index);
  }
  check_learn(member, phase, index);
}

void InvariantChecker::on_knowledge_gained(MemberId member, std::size_t phase,
                                           std::uint32_t index, MemberId from,
                                           std::uint32_t votes,
                                           gossip::GainKind kind) {
  const obs::LayerScope layer(obs::Layer::kProtocolsCheck);
  if (config_.next != nullptr) {
    config_.next->on_knowledge_gained(member, phase, index, from, votes, kind);
  }
  // Result pushes carry the whole aggregate, not a (phase, slot) cell, so
  // the slot-range check does not apply to them.
  if (kind != gossip::GainKind::kResult) check_learn(member, phase, index);
  if (from.value() >= config_.group_size) {
    violate(member, phase,
            "knowledge gained from out-of-range member " +
                std::to_string(from.value()) + " (group size " +
                std::to_string(config_.group_size) + ")");
  }
  if (votes == 0) {
    violate(member, phase, "knowledge gained covering zero votes");
  }
  if (votes > config_.group_size) {
    violate(member, phase,
            "knowledge gained covering " + std::to_string(votes) +
                " votes in a group of " + std::to_string(config_.group_size));
  }
}

void InvariantChecker::check_learn(MemberId member, std::size_t phase,
                                   std::uint32_t index) {
  check_deadline(member, phase, "value learned");
  if (phase == 0) {
    violate(member, phase, "value learned in phase 0 (phases are 1-based)");
  }
  if (phase == 1) {
    if (index >= config_.group_size) {
      violate(member, phase,
              "vote learned from out-of-range origin " +
                  std::to_string(index) + " (group size " +
                  std::to_string(config_.group_size) + ")");
    }
  } else if (config_.fanout != 0 && index >= config_.fanout) {
    violate(member, phase,
            "child aggregate learned for out-of-range slot " +
                std::to_string(index) + " (fanout " +
                std::to_string(config_.fanout) + ")");
  }
}

void InvariantChecker::on_phase_concluded(MemberId member, std::size_t phase,
                                          gossip::PhaseEnd how,
                                          std::uint32_t votes) {
  const obs::LayerScope layer(obs::Layer::kProtocolsCheck);
  if (config_.next != nullptr) {
    config_.next->on_phase_concluded(member, phase, how, votes);
  }
  MemberState& s = state_of(member);
  check_deadline(member, phase, "phase concluded");
  // Disjoint-merge check: conclude_phase registers its merge immediately
  // before emitting this event (same call stack), so a jump in the audit
  // registry's violation counter since the last event pins double counting
  // to this member and phase — during the run, not at measurement time.
  if (config_.audit != nullptr) {
    const std::uint64_t current = config_.audit->violation_count();
    bool jumped = false;
    {
      std::unique_lock<std::mutex> lock;
      if (config_.concurrent) lock = std::unique_lock<std::mutex>(mutex_);
      if (current > audit_violations_seen_) {
        audit_violations_seen_ = current;
        jumped = true;
      }
    }
    if (jumped) {
      violate(member, phase,
              "merge combined overlapping vote sets (double counting, §2)");
    }
  }
  if (phase == 0) violate(member, phase, "concluded phase 0");
  if (phase <= s.last_concluded) {
    violate(member, phase,
            "phase conclusions not monotone: concluded phase " +
                std::to_string(phase) + " after phase " +
                std::to_string(s.last_concluded));
  }
  if (votes < s.votes) {
    violate(member, phase,
            "vote count decreased: " + std::to_string(votes) + " after " +
                std::to_string(s.votes));
  }
  if (votes > config_.group_size) {
    violate(member, phase,
            "vote count " + std::to_string(votes) + " exceeds group size " +
                std::to_string(config_.group_size));
  }
  s.last_concluded = phase;
  s.votes = votes;
}

void InvariantChecker::on_finished(MemberId member, std::uint32_t votes) {
  const obs::LayerScope layer(obs::Layer::kProtocolsCheck);
  if (config_.next != nullptr) config_.next->on_finished(member, votes);
  MemberState& s = state_of(member);
  check_deadline(member, s.last_concluded, "termination");
  if (s.finished) violate(member, s.last_concluded, "terminated twice");
  if (votes != s.votes) {
    violate(member, s.last_concluded,
            "terminated with " + std::to_string(votes) +
                " votes but last conclusion covered " +
                std::to_string(s.votes));
  }
  s.finished = true;
  finished_count_.fetch_add(1, std::memory_order_release);
}

void InvariantChecker::expect_all_finished(
    const std::vector<MemberId>& members) {
  for (const MemberId m : members) {
    const MemberState& s = state_of(m);
    if (!s.finished) {
      violate(m, s.last_concluded,
              "member never terminated (deadline " +
                  std::to_string(config_.deadline.ticks()) + "us)");
    }
  }
}

}  // namespace gridbox::protocols
