#include "src/hierarchy/hierarchy.h"

#include <algorithm>
#include <limits>

#include "src/common/ensure.h"

namespace gridbox::hierarchy {

namespace {

// ceil(log_k n) computed with exact integer arithmetic (floating-point log
// misplaces exact powers). Returns 1 for n <= k.
[[nodiscard]] std::size_t ceil_log(std::uint64_t n, std::uint64_t k) {
  std::size_t phases = 1;
  std::uint64_t reach = k;  // k^phases
  while (reach < n) {
    ++phases;
    expects(reach <= std::numeric_limits<std::uint64_t>::max() / k,
            "group size estimate too large for fanout");
    reach *= k;
  }
  return phases;
}

}  // namespace

GridBoxHierarchy::GridBoxHierarchy(std::size_t group_size_estimate,
                                   std::uint32_t members_per_box,
                                   const hashing::HashFunction& hash)
    : n_(group_size_estimate), k_(members_per_box), hash_(&hash) {
  expects(group_size_estimate >= 1, "group size estimate must be positive");
  expects(members_per_box >= 2, "K must be at least 2");
  phases_ = ceil_log(n_, k_);
  num_boxes_ = checked_pow(k_, phases_ - 1);
}

double GridBoxHierarchy::hash_value(MemberId id) const {
  return hash_->unit_value(id);
}

GridBoxId GridBoxHierarchy::box_of(MemberId id) const {
  const double u = hash_->unit_value(id);
  ensures(u >= 0.0 && u < 1.0, "hash value outside [0,1)");
  const auto box =
      static_cast<std::uint64_t>(u * static_cast<double>(num_boxes_));
  return GridBoxId{static_cast<GridBoxId::underlying>(
      std::min<std::uint64_t>(box, num_boxes_ - 1))};
}

GridBoxAddress GridBoxHierarchy::address_of(GridBoxId box) const {
  return GridBoxAddress{box, digit_count(), k_};
}

std::uint64_t GridBoxHierarchy::phase_group(GridBoxId box,
                                            std::size_t phase) const {
  expects(phase >= 1 && phase <= phases_, "phase out of range");
  return box.value() / checked_pow(k_, phase - 1);
}

bool GridBoxHierarchy::same_phase_group(MemberId a, MemberId b,
                                        std::size_t phase) const {
  return phase_group(a, phase) == phase_group(b, phase);
}

std::uint32_t GridBoxHierarchy::child_slot(GridBoxId box,
                                           std::size_t phase) const {
  expects(phase >= 2 && phase <= phases_, "child_slot needs phase >= 2");
  return static_cast<std::uint32_t>(
      (box.value() / checked_pow(k_, phase - 2)) % k_);
}

std::vector<MemberId> GridBoxHierarchy::phase_peers(
    const std::vector<MemberId>& candidates, MemberId self,
    std::size_t phase) const {
  const std::uint64_t own = phase_group(self, phase);
  std::vector<MemberId> peers;
  for (const MemberId m : candidates) {
    if (m != self && phase_group(m, phase) == own) peers.push_back(m);
  }
  return peers;
}

}  // namespace gridbox::hierarchy
