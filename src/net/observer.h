// Transport-level observability hook.
//
// A NetworkObserver receives one on_message callback per transport
// decision, in the exact deterministic order the network makes them:
// accept (kSend, before the drop decision, so every offered message is
// seen exactly once), drop, duplicate scheduling, and the three delivery
// outcomes. The six message kinds mirror NetworkStats counters one-to-one,
// so an observer that counts events must reconcile exactly with
// net::stats at the end of a run — the obs subsystem tests that invariant
// to keep the two accounting paths from drifting.
//
// A detached network pays one null-pointer test per event.
#pragma once

#include "src/common/types.h"
#include "src/net/message.h"
#include "src/obs/run_event.h"

namespace gridbox::net {

class NetworkObserver {
 public:
  virtual ~NetworkObserver() = default;

  /// `kind` is one of obs::RunEventKind's six message kinds (kSend through
  /// kMalformed); `now` is the network's clock at the decision.
  virtual void on_message(obs::RunEventKind kind, const Message& message,
                          SimTime now) = 0;
};

}  // namespace gridbox::net
