// The simulated unreliable asynchronous network.
//
// Connects protocol endpoints over a point-to-point transport with the
// paper's loss model (FaultModel) and pluggable delay (LatencyModel). This
// is the substrate the paper assumes: "an underlying routing mechanism ...
// that enables any member to send messages to any other member" (§2),
// unreliable and asynchronous.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/net/chaos.h"
#include "src/net/fault_model.h"
#include "src/net/latency_model.h"
#include "src/net/message.h"
#include "src/net/observer.h"
#include "src/net/stats.h"
#include "src/net/transport.h"
#include "src/sim/simulator.h"

namespace gridbox::net {

/// In-flight messages are typed deliver-frame events: the frame rides inside
/// the event queue, so a send -> deliver hop is two fixed-size copies and no
/// heap allocation (chaos duplicates reuse the already-built frame the same
/// way — one more event copy each, never a deep copy).
///
/// Final: protocol code dispatches through Transport, but the simulator's
/// own calls (deliver_frame) and the runner's wiring stay devirtualized.
class SimNetwork final : public Transport, public sim::FrameSink {
 public:
  /// The network does not own the simulator; it must outlive the network.
  SimNetwork(sim::Simulator& simulator, FaultModel faults,
             std::unique_ptr<LatencyModel> latency, Rng rng);

  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  /// Registers the receiver for a member id. The endpoint must outlive the
  /// network or be detached first.
  void attach(MemberId id, Endpoint& endpoint) override;

  /// Removes the receiver; in-flight messages to it are dropped on arrival.
  void detach(MemberId id) override;

  /// Optional liveness oracle consulted at delivery time; a message to a
  /// member for which this returns false is counted as dead-destination.
  /// (Crashed members neither send nor receive — membership::Group wires
  /// this to its crash state.)
  void set_liveness(std::function<bool(MemberId)> is_alive);

  /// Optional distance function for link-load accounting (topology ablation).
  void set_distance(std::function<double(MemberId, MemberId)> distance);

  /// Installs a chaos schedule. While installed, the schedule's own fault
  /// pipeline decides drops (the constructor-time fault model is bypassed —
  /// wrap it into the schedule to keep it) and may add bounded delay and
  /// duplicate deliveries. The network binds the schedule to its simulator
  /// clock. Install before any send.
  void install_chaos(std::unique_ptr<ChaosSchedule> chaos);

  /// The installed schedule, or nullptr.
  [[nodiscard]] const ChaosSchedule* chaos() const { return chaos_.get(); }

  /// Optional observability hooks, called in deterministic event order (see
  /// observer.h). Non-owning; null detaches. The observer must outlive the
  /// network or be detached first.
  void set_observer(NetworkObserver* observer) { observer_ = observer; }

  /// Sends one unicast message. May be dropped by the fault model; otherwise
  /// it is delivered after the model latency, if the destination is then
  /// attached and alive. Self-sends are delivered like any other message.
  void send(Message message) override;

  [[nodiscard]] const NetworkStats& stats() const override { return stats_; }

  [[nodiscard]] sim::Simulator& simulator() { return simulator_; }

 private:
  /// sim::FrameSink: called by the simulator when an in-flight message's
  /// delivery event comes due.
  void deliver_frame(const Message& message) override;
  /// One transport decision to the observer, if any, at the current time.
  void observe(obs::RunEventKind kind, const Message& message) {
    if (observer_ != nullptr) {
      observer_->on_message(kind, message, simulator_.now());
    }
  }

  sim::Simulator& simulator_;
  FaultModel faults_;
  std::unique_ptr<ChaosSchedule> chaos_;
  std::unique_ptr<LatencyModel> latency_;
  Rng rng_;
  // Dense routing table indexed by member id (ids are dense 0..N-1 in every
  // experiment): one array load per delivery instead of a hash lookup on
  // the hottest path in the simulator. Unattached slots are null.
  std::vector<Endpoint*> endpoints_;
  std::function<bool(MemberId)> is_alive_;
  std::function<double(MemberId, MemberId)> distance_;
  NetworkStats stats_;
  NetworkObserver* observer_ = nullptr;
};

}  // namespace gridbox::net
