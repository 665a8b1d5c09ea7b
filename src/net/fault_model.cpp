#include "src/net/fault_model.h"

#include <utility>

#include "src/common/ensure.h"

namespace gridbox::net {

IndependentLoss::IndependentLoss(double loss_probability)
    : loss_probability_(loss_probability) {
  expects(loss_probability >= 0.0 && loss_probability <= 1.0,
          "loss probability must be in [0,1]");
}

bool IndependentLoss::drops(MemberId, MemberId, Rng& rng) const {
  return rng.bernoulli(loss_probability_);
}

PartitionLoss::PartitionLoss(std::function<int(MemberId)> side_of,
                             double within_loss, double cross_loss)
    : side_of_(std::move(side_of)),
      within_loss_(within_loss),
      cross_loss_(cross_loss) {
  expects(static_cast<bool>(side_of_), "side_of function must be callable");
  expects(within_loss >= 0.0 && within_loss <= 1.0, "within_loss in [0,1]");
  expects(cross_loss >= 0.0 && cross_loss <= 1.0, "cross_loss in [0,1]");
}

std::unique_ptr<PartitionLoss> PartitionLoss::split_at(
    MemberId::underlying boundary, double within_loss, double cross_loss) {
  return std::make_unique<PartitionLoss>(
      [boundary](MemberId m) { return m.value() < boundary ? 0 : 1; },
      within_loss, cross_loss);
}

bool PartitionLoss::drops(MemberId source, MemberId destination,
                          Rng& rng) const {
  const bool crosses = side_of_(source) != side_of_(destination);
  return rng.bernoulli(crosses ? cross_loss_ : within_loss_);
}

}  // namespace gridbox::net
