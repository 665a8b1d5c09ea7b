// Counters describing what the simulated network actually did in a run.
#pragma once

#include <cstdint>

namespace gridbox::net {

struct NetworkStats {
  std::uint64_t messages_sent = 0;       ///< send() calls accepted
  std::uint64_t messages_dropped = 0;    ///< lost to the fault model
  std::uint64_t messages_dead_dest = 0;  ///< destination crashed/detached at delivery
  std::uint64_t messages_delivered = 0;  ///< reached a live endpoint
  std::uint64_t messages_malformed = 0;  ///< rejected by the receiver's decoder
  std::uint64_t messages_duplicated = 0;  ///< extra deliveries from chaos dup

  /// Frame bytes put on the wire: counted once per wire traversal, so each
  /// chaos-injected duplicate adds the frame size again. Matches the
  /// observability bytes_on_wire counter exactly.
  std::uint64_t bytes_sent = 0;

  /// Sum of Euclidean link distances over all sends; meaningful only when a
  /// distance function is registered (topology ablation). Together with
  /// messages_sent this gives mean hop distance per message.
  double link_distance_sum = 0.0;

  [[nodiscard]] double delivery_rate() const {
    return messages_sent == 0
               ? 0.0
               : static_cast<double>(messages_delivered) /
                     static_cast<double>(messages_sent);
  }
};

}  // namespace gridbox::net
