// Per-run phase timeline: when each gossip phase started and ended, and how
// much traffic it cost. Index 0 aggregates phase-less activity (baseline
// protocols, pre-start traffic); index i >= 1 is gossip phase i.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace gridbox::obs {

struct PhaseSpan {
  std::uint64_t entered = 0;    ///< members that entered this phase
  std::uint64_t concluded = 0;  ///< phase conclusions reported
  std::uint64_t msgs_sent = 0;  ///< sends attributed to this phase
  std::uint64_t rounds = 0;     ///< gossip rounds executed in this phase
  std::uint64_t votes_concluded_sum = 0;  ///< sum of votes over conclusions
  bool any_entered = false;               ///< first_entered is meaningful
  SimTime first_entered = SimTime::zero();
  SimTime last_concluded = SimTime::zero();
};

struct PhaseTimeline {
  std::vector<PhaseSpan> phases;

  [[nodiscard]] bool empty() const { return phases.empty(); }

  /// Grows to cover `phase` and returns its span.
  PhaseSpan& at_phase(std::size_t phase) {
    if (phase >= phases.size()) phases.resize(phase + 1);
    return phases[phase];
  }

  /// Element-wise fold: counts add, first_entered takes the min, last
  /// concluded the max. Associative, so sweep reduction order is free.
  void merge(const PhaseTimeline& other);

  /// JSON array, one object per phase (integer-only and deterministic):
  /// [{"phase":1,"entered":N,...,"sim_start":t,"sim_end":t,"sim_us":d},...]
  /// Phases nothing ever touched are skipped. Per-phase completeness is
  /// derivable as votes_concluded_sum / (concluded * group_size).
  [[nodiscard]] std::string to_json() const;
};

}  // namespace gridbox::obs
