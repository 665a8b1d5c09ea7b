// The Grid Box Hierarchy (§6.1): N members hashed into N/K grid boxes whose
// base-K addresses induce a K-ary subtree structure used phase-by-phase.
//
// Sizing. With group-size estimate N and fanout K, the hierarchy has
//   num_phases  = max(1, ceil(log_K N))        (tree height)
//   digit_count = num_phases − 1               (digits per box address)
//   num_boxes   = K^digit_count                (≈ N/K boxes, avg K members)
// A member with hash value u ∈ [0,1) lives in box floor(u · num_boxes) — the
// paper's "H(Mj) · N/K written in base K". Every member can compute every
// other member's box locally, which is what makes the phases
// coordination-free.
//
// Phase terminology (paper §6.3). In phase i (1-based), a member works within
// its *phase-i group*: the set of members whose addresses agree in the most
// significant digit_count − (i−1) digits. Phase 1's group is the member's own
// grid box; phase num_phases' group is the whole tree. For i ≥ 2 the group
// splits into K *child slots* — the K possible values of the first masked
// digit — and the phase's job is to collect one child aggregate per slot.
//
// N only needs to be an *estimate* (§6.1): the hierarchy depends on N only
// through ceil(log_K N), so membership drift that keeps N within a factor K
// of the estimate changes nothing at all.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/hashing/hash_function.h"
#include "src/hierarchy/address.h"

namespace gridbox::hierarchy {

class GridBoxHierarchy {
 public:
  /// `group_size_estimate` is the (approximate) N known at all members;
  /// `members_per_box` is the constant K >= 2; `hash` is the group-wide
  /// well-known H and must outlive this object.
  GridBoxHierarchy(std::size_t group_size_estimate,
                   std::uint32_t members_per_box,
                   const hashing::HashFunction& hash);

  [[nodiscard]] std::uint32_t fanout() const { return k_; }
  [[nodiscard]] std::size_t group_size_estimate() const { return n_; }
  [[nodiscard]] std::size_t num_phases() const { return phases_; }
  [[nodiscard]] std::size_t digit_count() const { return phases_ - 1; }
  [[nodiscard]] std::uint64_t num_boxes() const { return num_boxes_; }

  /// The grid box of a member.
  [[nodiscard]] GridBoxId box_of(MemberId id) const;

  /// Raw H(id) in [0,1). Exposed because protocols reuse the well-known H
  /// for other deterministic group-wide choices (e.g. committee election).
  [[nodiscard]] double hash_value(MemberId id) const;

  [[nodiscard]] GridBoxAddress address_of(GridBoxId box) const;
  [[nodiscard]] GridBoxAddress address_of(MemberId id) const {
    return address_of(box_of(id));
  }

  /// Integer naming the phase-`phase` group of `id` (its address prefix with
  /// phase−1 digits masked). Requires 1 <= phase <= num_phases.
  [[nodiscard]] std::uint64_t phase_group(MemberId id, std::size_t phase) const {
    return phase_group(box_of(id), phase);
  }
  /// The same for a member already known to live in `box` (no hashing).
  [[nodiscard]] std::uint64_t phase_group(GridBoxId box,
                                          std::size_t phase) const;

  /// True iff both members are in the same phase-`phase` group.
  [[nodiscard]] bool same_phase_group(MemberId a, MemberId b,
                                      std::size_t phase) const;

  /// Which of the K child slots of its phase-`phase` group `id`'s own
  /// phase-(phase−1) group occupies. Requires 2 <= phase <= num_phases.
  [[nodiscard]] std::uint32_t child_slot(MemberId id, std::size_t phase) const {
    return child_slot(box_of(id), phase);
  }
  /// The same for a member already known to live in `box` (no hashing).
  [[nodiscard]] std::uint32_t child_slot(GridBoxId box,
                                         std::size_t phase) const;

  /// Members of `candidates` in the same phase-`phase` group as `self`
  /// (`self` is excluded). Order follows `candidates`.
  [[nodiscard]] std::vector<MemberId> phase_peers(
      const std::vector<MemberId>& candidates, MemberId self,
      std::size_t phase) const;

 private:
  std::size_t n_;
  std::uint32_t k_;
  std::size_t phases_;
  std::uint64_t num_boxes_;
  const hashing::HashFunction* hash_;
};

}  // namespace gridbox::hierarchy
