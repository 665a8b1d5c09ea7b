// Message-delivery fault model.
//
// The paper evaluates under (a) independent unicast loss with probability
// `ucastl` and (b) a soft network partition where cross-partition messages
// are dropped with probability `partl` while intra-partition messages see
// `ucastl` (§7, Figure 9). Both are one value: members with id < `boundary`
// are one side, the rest the other; a message crossing the boundary is lost
// with `cross`, any other with `within`. The zero value is lossless and
// draws nothing from the RNG. Everything richer is the chaos grammar's.
#pragma once

#include "src/common/ensure.h"
#include "src/common/rng.h"
#include "src/common/types.h"

namespace gridbox::net {

struct FaultModel {
  double within = 0.0;  ///< loss within one side: the paper's ucastl
  double cross = 0.0;   ///< loss across the boundary: the paper's partl
  /// Members with id < boundary are side 0, others side 1; 0 = no partition.
  MemberId::underlying boundary = 0;

  /// Independent (iid) unicast loss with a fixed probability.
  [[nodiscard]] static FaultModel iid(double loss) {
    return split_at(0, loss, 0.0);
  }

  /// Soft partition at `boundary` (Figure 9).
  [[nodiscard]] static FaultModel split_at(MemberId::underlying boundary,
                                           double within, double cross) {
    expects(within >= 0.0 && within <= 1.0, "within loss must be in [0,1]");
    expects(cross >= 0.0 && cross <= 1.0, "cross loss must be in [0,1]");
    return FaultModel{within, cross, boundary};
  }

  /// Returns true if a message from `source` to `destination` is lost.
  /// Called exactly once per send; draws from `rng` only for a loss
  /// probability strictly between 0 and 1.
  [[nodiscard]] bool drops(MemberId source, MemberId destination,
                           Rng& rng) const {
    const bool crosses =
        (source.value() < boundary) != (destination.value() < boundary);
    return rng.bernoulli(crosses ? cross : within);
  }
};

}  // namespace gridbox::net
