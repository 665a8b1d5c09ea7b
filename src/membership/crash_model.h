// Member crash model.
//
// Paper §7: "Members were prone to crashes (without recovery) in every gossip
// round with probability pf." The model is consulted once per alive member
// per round by the crash clock. Scripted crashes at chosen times are the
// chaos grammar's (`crash M at=T`).
#pragma once

#include "src/common/ensure.h"
#include "src/common/rng.h"

namespace gridbox::membership {

/// Independent crash with fixed per-round probability — the paper's `pf`.
class PerRoundCrash {
 public:
  explicit PerRoundCrash(double probability) : probability_(probability) {
    expects(probability >= 0.0 && probability <= 1.0,
            "crash probability must be in [0,1]");
  }

  /// Whether one member crashes this round; draws from `rng` only for a
  /// probability strictly between 0 and 1.
  [[nodiscard]] bool crashes(Rng& rng) const {
    return rng.bernoulli(probability_);
  }

  [[nodiscard]] double probability() const { return probability_; }

 private:
  double probability_;
};

}  // namespace gridbox::membership
