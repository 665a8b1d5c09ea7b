// The transport interface protocols are written against.
//
// The paper assumes only "an underlying routing mechanism ... that enables
// any member to send messages to any other member" (§2) — unreliable,
// asynchronous, unicast. This interface is exactly that mechanism, with two
// implementations:
//
//   - net::SimNetwork: the discrete-event simulated network (pluggable loss
//     and latency models, scripted chaos, deterministic in the seed).
//   - net::UdpTransport: real nonblocking UDP sockets on a poll reactor,
//     shipping the same fixed net::Frame bytes on the wire.
//
// Protocol nodes hold a Transport* and call send(); everything else
// (fault/latency models, chaos installation, observers, socket addressing)
// is an implementation concern configured by the world that owns the
// transport. The differential oracle runs one protocol over both
// implementations and judges the results (src/runner/differential.h).
#pragma once

#include "src/common/types.h"
#include "src/net/message.h"
#include "src/net/stats.h"

namespace gridbox::net {

/// Receiver side of the transport. Protocol nodes implement this.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual void on_message(const Message& message) = 0;
};

/// Point-to-point unicast with a constant message size bound (net::Frame).
/// May drop, delay, reorder, and duplicate; never corrupts silently —
/// payloads a receiver cannot decode are counted malformed, not delivered.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Registers the receiver for a member id. The endpoint must outlive the
  /// transport or be detached first.
  virtual void attach(MemberId id, Endpoint& endpoint) = 0;

  /// Removes the receiver; in-flight messages to it are dropped on arrival.
  virtual void detach(MemberId id) = 0;

  /// Sends one unicast message. Fire-and-forget: delivery is best-effort
  /// and asynchronous. Self-sends are delivered like any other message.
  virtual void send(Message message) = 0;

  /// What the transport actually did so far (sends, drops, deliveries...).
  [[nodiscard]] virtual const NetworkStats& stats() const = 0;
};

}  // namespace gridbox::net
