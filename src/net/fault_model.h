// Message-delivery fault models.
//
// The paper evaluates under (a) independent unicast loss with probability
// `ucastl` and (b) a soft network partition where cross-partition messages
// are dropped with probability `partl` while intra-partition messages see
// `ucastl` (§7, Figure 9). Both are implemented here behind one interface so
// protocols are fault-model agnostic.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"

namespace gridbox::net {

/// Decides, per message, whether the network drops it.
class FaultModel {
 public:
  virtual ~FaultModel() = default;

  /// Returns true if a message from `source` to `destination` is lost.
  /// Called exactly once per send; implementations may consume randomness.
  [[nodiscard]] virtual bool drops(MemberId source, MemberId destination,
                                   Rng& rng) const = 0;
};

/// Lossless network (used by correctness tests: with no faults the protocol
/// must achieve completeness exactly 1).
class NoLoss final : public FaultModel {
 public:
  [[nodiscard]] bool drops(MemberId, MemberId, Rng&) const override {
    return false;
  }
};

/// Independent (iid) unicast loss with a fixed probability — the paper's
/// `ucastl`.
class IndependentLoss final : public FaultModel {
 public:
  explicit IndependentLoss(double loss_probability);

  [[nodiscard]] bool drops(MemberId, MemberId, Rng& rng) const override;

  [[nodiscard]] double loss_probability() const { return loss_probability_; }

 private:
  double loss_probability_;
};

/// Soft partition: the group is split into two halves; messages crossing the
/// partition are dropped with `cross_loss`, messages within a half with
/// `within_loss`. Models correlated failures / congestion (Figure 9).
class PartitionLoss final : public FaultModel {
 public:
  /// `side_of` maps a member to its partition side (any integer; unequal
  /// sides mean the message crosses the partition).
  PartitionLoss(std::function<int(MemberId)> side_of, double within_loss,
                double cross_loss);

  /// Convenience: members with id value < `boundary` are side 0, others 1.
  static std::unique_ptr<PartitionLoss> split_at(MemberId::underlying boundary,
                                                 double within_loss,
                                                 double cross_loss);

  [[nodiscard]] bool drops(MemberId source, MemberId destination,
                           Rng& rng) const override;

 private:
  std::function<int(MemberId)> side_of_;
  double within_loss_;
  double cross_loss_;
};

}  // namespace gridbox::net
