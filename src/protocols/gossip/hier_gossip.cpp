#include "src/protocols/gossip/hier_gossip.h"

#include <algorithm>
#include <array>
#include <utility>

#include "src/agg/codec.h"
#include "src/common/ensure.h"
#include "src/obs/profile.h"

namespace gridbox::protocols::gossip {

namespace {

// Wire message types. Both carry a batch of 1..kMaxEntriesPerMessage
// entries; single-value mode simply sends batches of one.
constexpr std::uint8_t kVoteGossip = 1;   // phase 1: member votes
constexpr std::uint8_t kChildGossip = 2;  // phase >= 2: child aggregates

// Fixed wire layout, used both to encode and to validate lengths strictly on
// receive: type u8 + phase u8 + group prefix u64 + count u8, then `count`
// fixed-size entries. Anything whose length does not match exactly is
// malformed — truncated AND overlong frames are rejected.
constexpr std::size_t kBatchHeaderBytes = 1 + 1 + 8 + 1;
constexpr std::size_t kVoteEntryBytes = 4 + 8 + 8;  // origin, value, token
constexpr std::size_t kChildEntryBytes =
    1 + agg::kPartialWireBytes + 8;  // slot, partial, token

}  // namespace

net::Frame HierGossipNode::encode_votes(
    std::uint64_t group_prefix, const std::vector<VoteEntry>& entries) {
  const obs::LayerScope layer(obs::Layer::kCodecEncode);
  agg::ByteWriter w;
  w.u8(kVoteGossip);
  w.u8(1);  // phase
  w.u64(group_prefix);
  w.u8(static_cast<std::uint8_t>(entries.size()));
  for (const VoteEntry& e : entries) {
    w.u32(e.origin.value());
    w.f64(e.value);
    w.u64(e.token);
  }
  return w.take();
}

net::Frame HierGossipNode::encode_children(
    std::uint8_t phase, std::uint64_t group_prefix,
    const std::vector<ChildEntry>& entries) {
  const obs::LayerScope layer(obs::Layer::kCodecEncode);
  agg::ByteWriter w;
  w.u8(kChildGossip);
  w.u8(phase);
  w.u64(group_prefix);
  w.u8(static_cast<std::uint8_t>(entries.size()));
  for (const ChildEntry& e : entries) {
    w.u8(static_cast<std::uint8_t>(e.slot));
    agg::write_partial(w, e.partial);
    w.u64(e.token);
  }
  return w.take();
}

HierGossipNode::HierGossipNode(MemberId self, double vote,
                               membership::View view, protocols::NodeEnv env,
                               Rng rng, GossipConfig config)
    : ProtocolNode(self, vote, std::move(view), env, rng),
      config_(config),
      phase_(arena().phase(slot())),
      rounds_budget_(arena().rounds_budget(slot())) {
  expects(config_.k == hier().fanout(),
          "gossip config K must match the hierarchy fanout");
  // Segment mode needs the run's phase tables *and* this node seeing the
  // run's exact member set (the tables describe the full group, not a
  // partial view). Views share the arena's vector, so pointer identity is
  // the test.
  use_segment_ = arena().has_phase_tables() &&
                 this->view().members().data() == arena().members().data();
}

void HierGossipNode::start(SimTime at) {
  ensures(phase_ == 0, "start called twice");
  SimTime begin = at;
  if (config_.start_skew_max.ticks() > 0) {
    begin += SimTime{static_cast<SimTime::underlying>(
        rng().uniform_int(0, static_cast<std::uint64_t>(
                                 config_.start_skew_max.ticks())))};
  }
  // The member's box never changes: hash it once, here rather than in the
  // constructor (which runs for every member inside the setup budget).
  box_ = hier().box_of(self());
  enter_phase(1);
  start_rounds(begin, config_.round_duration);
}

void HierGossipNode::enter_phase(std::size_t phase) {
  phase_ = static_cast<std::uint32_t>(phase);
  rounds_in_phase_ = 0;
  // Phase deadlines sit on a fixed grid: phase i times out once the member
  // has executed i * ⌈C·log_M N⌉ rounds since its own start. A member that
  // bumps early (step 2(b)) therefore spends the saved rounds gossiping in
  // the *next* phase — it keeps feeding slower peers instead of terminating
  // ahead of them, which is what makes the asynchronous protocol's
  // completeness match (even slightly beat) the synchronous analysis.
  rounds_budget_ =
      static_cast<std::uint64_t>(phase) *
      config_.rounds_per_phase(hier().group_size_estimate());
  round_robin_cursor_ = 0;
  // Every gossip and every received entry of this phase checks the group
  // prefix: compute it once.
  group_prefix_ = hier().phase_group(box_, phase);
  const std::uint32_t own_slot =
      phase >= 2 ? hier().child_slot(box_, phase) : 0;
  rebuild_peer_cache();

  if (phase == 1) {
    // The phase-1 universe: this node's box members (itself included),
    // ascending by id — the key set the old per-node std::map grew into.
    if (use_segment_) {
      p1_ids_.reserve(seg_.size);
      for (std::uint32_t i = 0; i < seg_.size; ++i) {
        p1_ids_.push_back(arena().ordered_member(1, seg_.offset + i));
      }
    } else {
      p1_ids_ = peers_;
      p1_ids_.insert(
          std::lower_bound(p1_ids_.begin(), p1_ids_.end(), self()), self());
    }
    p1_mask_ = MemberBitset(p1_ids_.size());
    p1_values_.assign(p1_ids_.size(), KnownValue{});
    // Own vote is always known.
    KnownValue own;
    own.partial = agg::Partial::from_vote(own_vote());
    own.audit_token = register_own_vote();
    const std::size_t self_idx =
        use_segment_
            ? seg_.pos
            : static_cast<std::size_t>(
                  std::lower_bound(p1_ids_.begin(), p1_ids_.end(), self()) -
                  p1_ids_.begin());
    p1_mask_.set(self_idx);
    p1_values_[self_idx] = std::move(own);
  } else {
    known_children_.assign(config_.k, std::nullopt);
    // Seed our own child slot with the previous phase's result (§6.3:
    // "Mj already knows about the aggregate value for its own
    // height-(i−1) subtree immediately after phase (i−1) concludes").
    known_children_[own_slot] = carry_;
  }
  if (config_.trace != nullptr) {
    config_.trace->on_phase_entered(self(), phase);
    if (phase == 1) {
      config_.trace->on_knowledge_gained(self(), 1, self().value(), self(), 1,
                                         GainKind::kLocal);
    } else {
      config_.trace->on_knowledge_gained(self(), phase, own_slot, self(),
                                         carry_.partial.count(),
                                         GainKind::kLocal);
    }
  }
}

void HierGossipNode::rebuild_peer_cache() {
  if (use_segment_) {
    seg_ = arena().segment(phase_, self());
    peers_.clear();
  } else {
    peers_ = hier().phase_peers(view().members(), self(), phase_);
  }
}

std::size_t HierGossipNode::peer_count() const {
  return use_segment_ ? seg_.size - 1 : peers_.size();
}

MemberId HierGossipNode::peer_at(std::size_t index) const {
  if (!use_segment_) return peers_[index];
  // The segment includes self at seg_.pos; skipping it reproduces the old
  // self-excluded peer vector index for index.
  const std::size_t j = index < seg_.pos ? index : index + 1;
  return arena().ordered_member(phase_, seg_.offset + j);
}

bool HierGossipNode::on_round() {
  if (finished() || !alive()) return false;

  // Deadline check first, against the global phase grid: messages gossiped
  // in the last round of a phase window land (latency < round length) before
  // this tick, so they still count. rounds_executed() counts every round
  // since this member's start.
  while (!finished() && rounds_executed() >= rounds_budget_) {
    conclude_phase(PhaseEnd::kTimeout);
  }
  if (finished()) return false;

  count_round();
  ++rounds_in_phase_;

  std::uint32_t fanout = 0;
  const std::size_t gossipees = peer_count();
  if (gossipees > 0) {
    // Note: gossip_once subsamples entries into scratch_picks_, so the
    // round's gossipee picks need their own scratch vector.
    rng().sample_indices_into(
        gossipees, std::min<std::size_t>(config_.fanout_m, gossipees),
        scratch_round_picks_);
    fanout = static_cast<std::uint32_t>(scratch_round_picks_.size());
    for (const std::size_t p : scratch_round_picks_) gossip_once(peer_at(p));
  }
  if (config_.trace != nullptr) {
    config_.trace->on_round_gossiped(self(), phase_, fanout);
  }
  return true;
}

void HierGossipNode::gossip_once(MemberId target) {
  if (phase_ == 1) {
    std::vector<VoteEntry>& entries = scratch_votes_;
    entries.clear();
    if (config_.exchange_mode == ExchangeMode::kSingleValue) {
      const Candidate picked = pick_value_to_send();
      if (picked.value == nullptr) return;
      ++picked.value->times_sent;
      entries.push_back(VoteEntry{
          MemberId{static_cast<MemberId::underlying>(picked.key)},
          picked.value->partial.sum(), picked.value->audit_token});
    } else {
      // Full-state: everything known, or a uniform subset above the cap.
      for_each_known_vote([&entries](MemberId origin, KnownValue& kv) {
        entries.push_back(VoteEntry{origin, kv.partial.sum(), kv.audit_token});
      });
      if (entries.size() > kMaxEntriesPerMessage) {
        // Same draw sequence as sampling from a separate `all` vector, so
        // seeded runs and their wire bytes are unchanged.
        rng().sample_indices_into(entries.size(), kMaxEntriesPerMessage,
                                  scratch_picks_);
        std::array<VoteEntry, kMaxEntriesPerMessage> picked;
        for (std::size_t i = 0; i < scratch_picks_.size(); ++i) {
          picked[i] = entries[scratch_picks_[i]];
        }
        entries.assign(picked.begin(), picked.begin() + scratch_picks_.size());
      }
    }
    if (!entries.empty()) {
      send_to(target, encode_votes(group_prefix_, entries));
    }
  } else {
    std::vector<ChildEntry>& entries = scratch_children_;
    entries.clear();
    if (config_.exchange_mode == ExchangeMode::kSingleValue) {
      const Candidate picked = pick_value_to_send();
      if (picked.value == nullptr) return;
      ++picked.value->times_sent;
      entries.push_back(
          ChildEntry{static_cast<std::uint32_t>(picked.key),
                     picked.value->partial, picked.value->audit_token});
    } else {
      for (std::uint32_t slot = 0; slot < config_.k; ++slot) {
        const auto& known = known_children_[slot];
        if (known.has_value()) {
          entries.push_back(
              ChildEntry{slot, known->partial, known->audit_token});
        }
      }
      if (entries.size() > kMaxEntriesPerMessage) {
        rng().sample_indices_into(entries.size(), kMaxEntriesPerMessage,
                                  scratch_picks_);
        std::array<ChildEntry, kMaxEntriesPerMessage> picked;
        for (std::size_t i = 0; i < scratch_picks_.size(); ++i) {
          picked[i] = entries[scratch_picks_[i]];
        }
        entries.assign(picked.begin(), picked.begin() + scratch_picks_.size());
      }
    }
    if (!entries.empty()) {
      send_to(target, encode_children(static_cast<std::uint8_t>(phase_),
                                      group_prefix_, entries));
    }
  }
}

HierGossipNode::Candidate HierGossipNode::pick_value_to_send() {
  // Collect candidate values for the current phase, ascending by key — the
  // same order the std::map iteration produced.
  std::vector<Candidate>& candidates = scratch_candidates_;
  candidates.clear();
  if (phase_ == 1) {
    for_each_known_vote([&candidates](MemberId origin, KnownValue& kv) {
      candidates.push_back(Candidate{origin.value(), &kv});
    });
  } else {
    for (std::uint32_t slot = 0; slot < config_.k; ++slot) {
      auto& known = known_children_[slot];
      if (known.has_value()) {
        candidates.push_back(Candidate{slot, &known.value()});
      }
    }
  }
  if (candidates.empty()) return Candidate{};

  switch (config_.value_policy) {
    case ValuePolicy::kRandomSingle:
      return candidates[rng().index(candidates.size())];
    case ValuePolicy::kRarestFirst:
      return *std::min_element(candidates.begin(), candidates.end(),
                               [](const Candidate& a, const Candidate& b) {
                                 return a.value->times_sent <
                                        b.value->times_sent;
                               });
    case ValuePolicy::kRoundRobin:
      return candidates[round_robin_cursor_++ % candidates.size()];
  }
  return candidates.front();
}

void HierGossipNode::on_message(const net::Message& message) {
  if (finished() || !alive()) return;
  agg::ByteReader r(message.frame);
  const std::uint8_t type = r.u8();
  const std::size_t msg_phase = r.u8();
  const std::uint64_t group_prefix = r.u64();

  // The paper absorbs a value only "by a gossip message from another member
  // in phase i": messages for other phases — stale ones from laggards — are
  // dropped, not buffered. The exception is *adoption* (below).
  if (type == kVoteGossip) {
    const std::size_t count = r.u8();
    expects(message.frame.size() ==
                kBatchHeaderBytes + count * kVoteEntryBytes,
            "vote gossip frame length mismatch");
    if (msg_phase != 1) return;
    for (std::size_t i = 0; i < count && i < kMaxEntriesPerMessage; ++i) {
      const MemberId origin{r.u32()};
      const double value = r.f64();
      const std::uint64_t token = r.u64();
      if (phase_ != 1) continue;  // may have bumped mid-batch
      if (group_prefix != group_prefix_) return;
      absorb_vote(origin, value, token, message.source);
    }
  } else if (type == kChildGossip) {
    const std::size_t count = r.u8();
    expects(message.frame.size() ==
                kBatchHeaderBytes + count * kChildEntryBytes,
            "child gossip frame length mismatch");
    if (msg_phase > hier().num_phases() || msg_phase < 2) return;
    for (std::size_t i = 0; i < count && i < kMaxEntriesPerMessage; ++i) {
      const std::uint32_t slot = r.u8();
      const agg::Partial partial = agg::read_partial(r);
      const std::uint64_t token = r.u64();
      if (finished()) return;
      if (slot >= config_.k) return;  // malformed
      if (msg_phase == phase_) {
        if (group_prefix != group_prefix_) return;
        absorb_child(slot, partial, token, message.source);
      } else if (config_.early_bump && phase_ >= 1 && msg_phase > phase_ &&
                 group_prefix == hier().phase_group(box_, msg_phase) &&
                 slot == hier().child_slot(box_, msg_phase)) {
        // Adoption: a peer ahead of us gossiped the aggregate of a subtree
        // that *encloses this member's current working subtree* — a value
        // our next phases exist to compute. "Mj knows about the aggregate
        // value of a subtree when it first receives the same": adopt it (if
        // at least as complete as what we could conclude ourselves) and jump
        // to the sender's phase. This is how a member left behind by
        // early-bumping peers — common when grid boxes are sparse — catches
        // up instead of carrying a permanently incomplete subtree value to
        // the root.
        adopt_phase_result(msg_phase, partial, token, message.source);
      }
      // Other entries (stale, or not about our own subtree) are skipped.
    }
  }
  // Unknown types are dropped: forward compatibility over crashing.
}

void HierGossipNode::absorb_vote(MemberId origin, double value,
                                 std::uint64_t token, MemberId sender) {
  // First received wins; duplicates are idempotent (same origin, same vote).
  bool inserted = false;
  const auto it = std::lower_bound(p1_ids_.begin(), p1_ids_.end(), origin);
  if (it != p1_ids_.end() && *it == origin) {
    const auto idx = static_cast<std::size_t>(it - p1_ids_.begin());
    if (!p1_mask_.test(idx)) {
      p1_mask_.set(idx);
      p1_values_[idx].partial = agg::Partial::from_vote(value);
      p1_values_[idx].audit_token = token;
      p1_values_[idx].times_sent = 0;
      inserted = true;
    }
  } else {
    // Origin outside this node's phase-1 universe: possible under partial
    // views, where a box peer knows members this node's view lacks.
    KnownValue kv;
    kv.partial = agg::Partial::from_vote(value);
    kv.audit_token = token;
    inserted = p1_extra_.emplace(origin, std::move(kv)).second;
  }
  if (inserted && config_.trace != nullptr) {
    config_.trace->on_knowledge_gained(self(), 1, origin.value(), sender, 1,
                                       GainKind::kRemote);
  }
  if (phase_ == 1 && config_.phase1_early_bump_with_view &&
      phase_saturated()) {
    conclude_phase(PhaseEnd::kSaturated);
  }
}

void HierGossipNode::absorb_child(std::uint32_t slot,
                                  const agg::Partial& partial,
                                  std::uint64_t token, MemberId sender) {
  if (known_children_[slot].has_value()) return;  // first received wins
  KnownValue kv;
  kv.partial = partial;
  kv.audit_token = token;
  known_children_[slot] = std::move(kv);
  if (config_.trace != nullptr) {
    config_.trace->on_knowledge_gained(self(), phase_, slot, sender,
                                       partial.count(), GainKind::kRemote);
  }
  if (config_.early_bump && phase_saturated()) {
    if (phase_ >= hier().num_phases() && config_.final_phase_linger) {
      // Saturated in the last phase: the estimate cannot improve, but
      // terminating now would stop feeding peers that still miss root
      // aggregates. Keep gossiping; the deadline concludes us.
      return;
    }
    conclude_phase(PhaseEnd::kSaturated);
  }
}

bool HierGossipNode::phase_saturated() const {
  if (phase_ == 1) {
    if (!config_.phase1_early_bump_with_view) return false;
    // All box members' votes known (p1_ids_ is exactly that set, self
    // included and always known).
    return p1_mask_.count() == p1_ids_.size();
  }
  return std::all_of(known_children_.begin(), known_children_.end(),
                     [](const auto& v) { return v.has_value(); });
}

void HierGossipNode::conclude_phase(PhaseEnd how) {
  agg::Partial acc;
  std::vector<std::uint64_t> tokens;
  if (phase_ == 1) {
    for_each_known_vote([&acc, &tokens](MemberId, KnownValue& kv) {
      acc.merge(kv.partial);
      tokens.push_back(kv.audit_token);
    });
  } else {
    for (const auto& known : known_children_) {
      if (!known.has_value()) continue;
      acc.merge(known->partial);
      tokens.push_back(known->audit_token);
    }
  }
  carry_.partial = acc;
  carry_.audit_token =
      audit() != nullptr ? audit()->register_merge(tokens) : agg::kNoAuditToken;
  carry_.times_sent = 0;
  finish_phase(how);
}

void HierGossipNode::adopt_phase_result(std::size_t msg_phase,
                                        const agg::Partial& partial,
                                        std::uint64_t token, MemberId sender) {
  // What would this member conclude from its own knowledge right now?
  std::uint32_t own_count = 0;
  if (phase_ == 1) {
    own_count = static_cast<std::uint32_t>(known_vote_count());
  } else {
    for (const auto& known : known_children_) {
      if (known.has_value()) own_count += known->partial.count();
    }
  }
  // Keep gossiping if we are strictly better informed than the adopter —
  // our conclusion will spread on its own merit.
  if (partial.count() < own_count) return;
  carry_.partial = partial;
  carry_.audit_token = token;
  carry_.times_sent = 0;
  if (config_.trace != nullptr) {
    config_.trace->on_knowledge_gained(
        self(), msg_phase,
        hier().child_slot(box_, msg_phase),
        sender, partial.count(), GainKind::kAdopted);
  }
  // The adopted value concludes phase msg_phase − 1, skipping the phases in
  // between; they end (vacuously) now.
  while (phase_ + 1 < msg_phase) {
    phase_end_times_.push_back(scheduler().now());
    ++phase_;
  }
  finish_phase(PhaseEnd::kAdopted);
}

void HierGossipNode::finish_phase(PhaseEnd how) {
  phase_end_times_.push_back(scheduler().now());
  if (config_.trace != nullptr) {
    config_.trace->on_phase_concluded(self(), phase_, how,
                                      carry_.partial.count());
  }
  if (phase_ >= hier().num_phases()) {
    set_outcome(carry_.partial, carry_.audit_token);
    phase_ = static_cast<std::uint32_t>(hier().num_phases() + 1);
    if (config_.trace != nullptr) {
      config_.trace->on_finished(self(), carry_.partial.count());
    }
  } else {
    enter_phase(phase_ + 1);
  }
}

}  // namespace gridbox::protocols::gossip
