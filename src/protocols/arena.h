// Per-run struct-of-arrays state for protocol nodes.
//
// Before this arena existed every node object carried its own scalars and
// per-peer std::map state, so a run's member state was N heap-scattered
// objects — fine at N=200, hopeless at N=10^5..10^6 where pointer chasing
// and per-node map allocations dominate. The arena owns flat parallel
// arrays indexed by *member slot* (dense 0..N-1, equal to the member id in
// every experiment configuration) and nodes read and write their slot.
//
// The arena also precomputes the hierarchy's phase-group layout once per
// run: for each phase, the member list stably sorted by phase group (so
// members of one group are a contiguous *segment*, ascending by id within
// the group — the same order the per-node phase_peers vectors used to
// have), plus each member's segment offset/size/position. Nodes whose view
// is the full run view share these tables instead of materializing
// per-node peer vectors, which is what turns the old O(N^2) peer-list
// memory of the final phases into O(N · phases) for the whole run.
//
// A node constructed without a shared arena (hand-wired tests) gets a
// private single-slot arena; behaviour is identical, only the sharing is
// lost.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/ensure.h"
#include "src/common/types.h"
#include "src/hierarchy/hierarchy.h"

namespace gridbox::protocols {

class StateArena {
 public:
  /// Shared arena over a run's member set. `members` must be sorted
  /// ascending with dense ids 0..N-1 (slot == id); the vector is aliased,
  /// not copied, so views sharing it can be recognized by data() identity.
  explicit StateArena(std::shared_ptr<const std::vector<MemberId>> members);

  /// Single-slot arena for one directly-constructed node.
  [[nodiscard]] static StateArena solo(MemberId self);

  [[nodiscard]] std::size_t size() const { return members_->size(); }
  [[nodiscard]] const std::vector<MemberId>& members() const {
    return *members_;
  }
  [[nodiscard]] const std::shared_ptr<const std::vector<MemberId>>&
  shared_members() const {
    return members_;
  }

  [[nodiscard]] std::size_t slot_of(MemberId id) const {
    if (solo_) {
      expects(id == (*members_)[0], "solo arena: unknown member");
      return 0;
    }
    expects(id.value() < members_->size(), "member outside arena");
    return id.value();
  }

  // Core per-slot state (vote value, audit token, phase, round, timer
  // budget, message counter). References stay valid for the arena's
  // lifetime — the arrays never reallocate after construction.
  [[nodiscard]] double& vote(std::size_t slot) { return vote_[slot]; }
  [[nodiscard]] double vote(std::size_t slot) const { return vote_[slot]; }
  [[nodiscard]] std::uint64_t& audit_token(std::size_t slot) {
    return audit_token_[slot];
  }
  [[nodiscard]] std::uint32_t& phase(std::size_t slot) {
    return phase_[slot];
  }
  [[nodiscard]] std::uint64_t& round(std::size_t slot) {
    return round_[slot];
  }
  [[nodiscard]] std::uint64_t round(std::size_t slot) const {
    return round_[slot];
  }
  [[nodiscard]] std::uint64_t& rounds_budget(std::size_t slot) {
    return rounds_budget_[slot];
  }
  [[nodiscard]] std::uint64_t& messages_sent(std::size_t slot) {
    return messages_sent_[slot];
  }
  [[nodiscard]] std::uint64_t messages_sent(std::size_t slot) const {
    return messages_sent_[slot];
  }

  /// Builds the per-phase segment tables (idempotent; requires a dense
  /// arena). `hier` must describe this run's hierarchy.
  void build_phase_tables(const hierarchy::GridBoxHierarchy& hier);

  /// Rebinds a retired arena to a new instance's world: aliases `members`
  /// (same size, dense — so slot arithmetic is unchanged), zeroes every
  /// state lane, and rebuilds the phase tables for `hier` (each instance
  /// hashes members into its own grid-box layout). The lane vectors keep
  /// their capacity, so recycling across a long epoch stream allocates
  /// only the per-phase tables — the service's arena pool leans on this.
  void recycle(std::shared_ptr<const std::vector<MemberId>> members,
               const hierarchy::GridBoxHierarchy& hier);
  [[nodiscard]] bool has_phase_tables() const { return !phase_order_.empty(); }

  /// A member's phase-group segment: the contiguous range
  /// [offset, offset+size) of that phase's order, with `pos` the member's
  /// own index within it.
  struct Segment {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
    std::uint32_t pos = 0;
  };

  [[nodiscard]] Segment segment(std::size_t phase, MemberId id) const {
    const PhaseTable& t = table(phase);
    const std::size_t m = id.value();
    return Segment{t.offset[m], t.size[m], t.pos[m]};
  }

  /// The member at `index` of `phase`'s group-sorted order.
  [[nodiscard]] MemberId ordered_member(std::size_t phase,
                                        std::size_t index) const {
    return table(phase).order[index];
  }

  /// Position of `id` within its own segment at `phase`.
  [[nodiscard]] std::uint32_t pos_in_segment(std::size_t phase,
                                             MemberId id) const {
    return table(phase).pos[id.value()];
  }

 private:
  struct PhaseTable {
    std::vector<MemberId> order;       // members sorted by (group, id)
    std::vector<std::uint32_t> offset;  // by member id: segment start
    std::vector<std::uint32_t> size;    // by member id: segment length
    std::vector<std::uint32_t> pos;     // by member id: index − offset
  };

  [[nodiscard]] const PhaseTable& table(std::size_t phase) const {
    expects(phase >= 1 && phase <= phase_order_.size(),
            "phase outside arena tables");
    return phase_order_[phase - 1];
  }

  explicit StateArena(std::shared_ptr<const std::vector<MemberId>> members,
                      bool solo);

  std::shared_ptr<const std::vector<MemberId>> members_;
  bool solo_ = false;
  std::vector<double> vote_;
  std::vector<std::uint64_t> audit_token_;
  std::vector<std::uint32_t> phase_;
  std::vector<std::uint64_t> round_;
  std::vector<std::uint64_t> rounds_budget_;
  std::vector<std::uint64_t> messages_sent_;
  std::vector<PhaseTable> phase_order_;  // index = phase − 1
};

}  // namespace gridbox::protocols
