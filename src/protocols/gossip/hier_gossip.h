// Hierarchical Gossiping (§6.3) — the paper's primary contribution.
//
// Each member runs num_phases() phases. In phase 1 it gossips, within its own
// grid box, individual votes of box members (always including its own). In
// phase i ≥ 2 it gossips, within its phase-i group, the aggregate values of
// that group's K child slots, seeding its own child slot with the result of
// phase i−1. A phase ends after ⌈C·log_M N⌉ gossip rounds, or — step 2(b) —
// as soon as all K child aggregates are known. After the last phase the
// member holds its estimate of the global aggregate and the protocol
// terminates at that member.
//
// No leader election, no failure detection, no acknowledgements: robustness
// comes entirely from epidemic redundancy. Message and time complexity are
// O(N·log²N) and O(log²N) — poly-logarithmically sub-optimal.
//
// State layout. When the run provides a StateArena with phase tables and
// this node's view is the run's full view, gossip targets come straight from
// the arena's per-phase group segments — no per-node peer vectors, which at
// the final phase used to mean every node holding an (N−1)-entry list.
// Phase-1 knowledge is a small struct-of-arrays over the node's box members
// (index-parallel flags + values) instead of a std::map per node; iteration
// stays in ascending-id order, so RNG draws, wire bytes, and traces are
// bitwise-identical to the map-based implementation.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "src/common/bitset.h"
#include "src/protocols/gossip/gossip_config.h"
#include "src/protocols/gossip/trace.h"
#include "src/protocols/node.h"

namespace gridbox::protocols::gossip {

class HierGossipNode final : public protocols::ProtocolNode {
 public:
  HierGossipNode(MemberId self, double vote, membership::View view,
                 protocols::NodeEnv env, Rng rng, GossipConfig config);

  void start(SimTime at) override;
  void on_message(const net::Message& message) override;

  [[nodiscard]] const GossipConfig& config() const { return config_; }

  /// Simulated time at which each phase completed (index 0 = phase 1).
  [[nodiscard]] const std::vector<SimTime>& phase_completion_times() const {
    return phase_end_times_;
  }

 private:
  /// One known value: either a member's vote (phase 1) or a child-slot
  /// aggregate (phases >= 2), plus audit provenance and a send counter for
  /// the rarest-first ablation policy.
  struct KnownValue {
    agg::Partial partial;
    std::uint64_t audit_token = agg::kNoAuditToken;
    std::uint64_t times_sent = 0;
  };

  /// A sendable value: its wire key (origin id in phase 1, child slot in
  /// phases >= 2) plus the mutable entry behind it.
  struct Candidate {
    std::uint64_t key = 0;
    KnownValue* value = nullptr;
  };

  /// Wire entry for a phase-1 vote batch (20 bytes on the wire).
  struct VoteEntry {
    MemberId origin;
    double value = 0.0;
    std::uint64_t token = agg::kNoAuditToken;
  };

  /// Wire entry for a phase >= 2 child-aggregate batch (45 bytes on the wire).
  struct ChildEntry {
    std::uint32_t slot = 0;
    agg::Partial partial;
    std::uint64_t token = agg::kNoAuditToken;
  };

  bool on_round() override;              // periodic tick; false stops timer
  void gossip_once(MemberId target);     // send one value to one gossipee
  [[nodiscard]] net::Frame encode_votes(std::uint64_t group_prefix,
                                        const std::vector<VoteEntry>& entries);
  [[nodiscard]] net::Frame encode_children(
      std::uint8_t phase, std::uint64_t group_prefix,
      const std::vector<ChildEntry>& entries);
  void conclude_phase(PhaseEnd how);     // aggregate own knowledge and bump
  void adopt_phase_result(std::size_t msg_phase, const agg::Partial& partial,
                          std::uint64_t token, MemberId sender);
  void finish_phase(PhaseEnd how);       // record carry_ and advance
  void enter_phase(std::size_t phase);
  void absorb_vote(MemberId origin, double value, std::uint64_t token,
                   MemberId sender);
  void absorb_child(std::uint32_t slot, const agg::Partial& partial,
                    std::uint64_t token, MemberId sender);
  [[nodiscard]] bool phase_saturated() const;  // all values known (early bump)
  [[nodiscard]] Candidate pick_value_to_send();
  void rebuild_peer_cache();

  /// Gossipees available this phase (segment size − 1, or peers_.size()).
  [[nodiscard]] std::size_t peer_count() const;
  /// The `index`-th gossipee (ascending id, self excluded).
  [[nodiscard]] MemberId peer_at(std::size_t index) const;

  /// Number of phase-1 votes known (box members + out-of-box extras).
  [[nodiscard]] std::size_t known_vote_count() const {
    return p1_mask_.count() + p1_extra_.size();
  }

  /// Calls fn(MemberId origin, KnownValue&) for every known phase-1 vote in
  /// ascending origin order — the iteration order the old std::map had.
  template <typename Fn>
  void for_each_known_vote(Fn&& fn) {
    auto it = p1_extra_.begin();
    for (std::size_t i = 0; i < p1_ids_.size(); ++i) {
      if (!p1_mask_.test(i)) continue;
      while (it != p1_extra_.end() && it->first < p1_ids_[i]) {
        fn(it->first, it->second);
        ++it;
      }
      fn(p1_ids_[i], p1_values_[i]);
    }
    for (; it != p1_extra_.end(); ++it) fn(it->first, it->second);
  }

  // This member's grid box, hashed once at start. Declared first, where it
  // fills the alignment hole after the base class instead of growing the
  // node (world setup allocates one node per member).
  GridBoxId box_;
  GossipConfig config_;
  // Hot per-member scalars live in the run arena's lanes (struct-of-arrays);
  // these references are this node's slots in them.
  std::uint32_t& phase_;          // 0 = not started; num_phases+1 = finished
  std::uint64_t& rounds_budget_;  // phase deadline on the global round grid
  std::uint64_t rounds_in_phase_ = 0;

  // True when gossip targets come from the arena's phase segments (shared
  // arena with phase tables, full run view). Otherwise peers_ is
  // materialized per phase, as the map-based implementation did.
  bool use_segment_ = false;
  StateArena::Segment seg_;  // current phase's segment (use_segment_ only)

  // The current phase's group prefix.
  std::uint64_t group_prefix_ = 0;

  // Phase-1 knowledge, struct-of-arrays: p1_ids_ is the node's box-member
  // universe (sorted, includes self), p1_mask_ flags which votes are known,
  // p1_values_ holds them index-parallel. Out-of-universe origins (possible
  // under partial views: a peer knows box members this node's view lacks)
  // overflow into the ordered p1_extra_ map.
  std::vector<MemberId> p1_ids_;
  MemberBitset p1_mask_;
  std::vector<KnownValue> p1_values_;
  std::map<MemberId, KnownValue> p1_extra_;

  // Phase-i (i >= 2) knowledge: one aggregate per child slot, first received
  // wins (paper: "when it first receives the same ... in phase i"). Values
  // for phases this node is not currently in are dropped, per the paper —
  // buffering them lets fast nodes skip whole phases without gossiping,
  // which starves slower peers and collapses completeness.
  std::vector<std::optional<KnownValue>> known_children_;

  // Result of the previous phase, seeding this node's own child slot.
  KnownValue carry_;

  // View members in the same phase group as this node, re-filtered per
  // phase. Only populated when segments are unavailable (hand-wired tests,
  // partial views) — with segments this stays empty at every phase.
  std::vector<MemberId> peers_;

  std::vector<SimTime> phase_end_times_;
  std::size_t round_robin_cursor_ = 0;

  // Per-round scratch, reused across rounds so the steady-state gossip path
  // stops allocating once these reach their high-water capacity. Contents
  // are dead between calls; every user clears before filling.
  std::vector<VoteEntry> scratch_votes_;
  std::vector<ChildEntry> scratch_children_;
  std::vector<Candidate> scratch_candidates_;
  std::vector<std::size_t> scratch_round_picks_;  ///< gossipee picks per round
  std::vector<std::size_t> scratch_picks_;        ///< entry subsampling
};

}  // namespace gridbox::protocols::gossip
