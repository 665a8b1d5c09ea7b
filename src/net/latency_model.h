// Message latency models for the simulated network.
//
// The protocols are latency-agnostic (gossip rounds are timer-driven), but a
// realistic latency distribution exercises asynchrony: messages from the same
// round arrive out of order and may straddle phase boundaries, exactly the
// regime the paper's simulations cover (§7 relaxes the synchronous-phase
// assumption of the analysis).
#pragma once

#include <functional>
#include <memory>

#include "src/common/rng.h"
#include "src/common/types.h"

namespace gridbox::net {

class LatencyModel {
 public:
  virtual ~LatencyModel() = default;

  /// One-way delay for a message from `source` to `destination`.
  [[nodiscard]] virtual SimTime delay(MemberId source, MemberId destination,
                                      Rng& rng) const = 0;
};

/// Fixed one-way delay.
class ConstantLatency final : public LatencyModel {
 public:
  explicit ConstantLatency(SimTime delay);
  [[nodiscard]] SimTime delay(MemberId, MemberId, Rng&) const override;

 private:
  SimTime delay_;
};

/// Uniform in [lo, hi].
class UniformLatency final : public LatencyModel {
 public:
  UniformLatency(SimTime lo, SimTime hi);
  [[nodiscard]] SimTime delay(MemberId, MemberId, Rng& rng) const override;

 private:
  SimTime lo_;
  SimTime hi_;
};

/// base + Exp(mean), truncated at base + cap: a long-tailed WAN-ish delay
/// that can never stall the simulation unboundedly.
class ExponentialLatency final : public LatencyModel {
 public:
  ExponentialLatency(SimTime base, SimTime mean_extra, SimTime cap_extra);
  [[nodiscard]] SimTime delay(MemberId, MemberId, Rng& rng) const override;

 private:
  SimTime base_;
  SimTime mean_extra_;
  SimTime cap_extra_;
};

/// Delay proportional to the Euclidean distance between member positions,
/// plus a base: models multihop routing cost in a sensor field (the
/// airplane_wing example, where a topologically aware hash keeps early
/// protocol phases on short links, §6.1).
class DistanceLatency final : public LatencyModel {
 public:
  /// `position_of` must return the member's coordinates; `per_unit` is the
  /// added delay per unit of distance.
  DistanceLatency(std::function<Position(MemberId)> position_of, SimTime base,
                  SimTime per_unit);
  [[nodiscard]] SimTime delay(MemberId source, MemberId destination,
                              Rng& rng) const override;

 private:
  std::function<Position(MemberId)> position_of_;
  SimTime base_;
  SimTime per_unit_;
};

}  // namespace gridbox::net
