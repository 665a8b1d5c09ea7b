#include "src/protocols/gossip/gossip_config.h"

#include <algorithm>
#include <cmath>

#include "src/common/ensure.h"

namespace gridbox::protocols::gossip {

std::uint64_t GossipConfig::rounds_per_phase(std::size_t n) const {
  expects(k >= 2, "K must be at least 2");
  expects(fanout_m >= 1, "M must be at least 1");
  expects(round_multiplier_c > 0.0, "C must be positive");
  if (rounds_per_phase_override > 0) return rounds_per_phase_override;
  // ⌈C · log_M N⌉; with M = 1 the base-M log is undefined, so fall back to
  // base 2 (a single-gossipee round still spreads one value per round).
  const double base = fanout_m >= 2 ? static_cast<double>(fanout_m) : 2.0;
  const double rounds =
      std::ceil(round_multiplier_c *
                std::log(std::max<std::size_t>(n, 2)) / std::log(base));
  // Casting a non-finite or >= 2^64 double to an integer is undefined.
  expects(std::isfinite(rounds) && rounds < 0x1p64,
          "C too large: rounds per phase out of range");
  return static_cast<std::uint64_t>(std::max(1.0, rounds));
}

}  // namespace gridbox::protocols::gossip
