#include "src/net/network.h"

#include <utility>

#include "src/common/ensure.h"
#include "src/obs/profile.h"

namespace gridbox::net {

SimNetwork::SimNetwork(sim::Simulator& simulator,
                       FaultModel faults,
                       std::unique_ptr<LatencyModel> latency, Rng rng)
    : simulator_(simulator),
      faults_(faults),
      latency_(std::move(latency)),
      rng_(rng) {
  expects(latency_ != nullptr, "latency model required");
}

void SimNetwork::attach(MemberId id, Endpoint& endpoint) {
  expects(id.is_valid(), "cannot attach the invalid member id");
  if (id.value() >= endpoints_.size()) endpoints_.resize(id.value() + 1);
  endpoints_[id.value()] = &endpoint;
}

void SimNetwork::detach(MemberId id) {
  if (id.value() < endpoints_.size()) endpoints_[id.value()] = nullptr;
}

void SimNetwork::set_liveness(std::function<bool(MemberId)> is_alive) {
  is_alive_ = std::move(is_alive);
}

void SimNetwork::set_distance(
    std::function<double(MemberId, MemberId)> distance) {
  distance_ = std::move(distance);
}

void SimNetwork::install_chaos(std::unique_ptr<ChaosSchedule> chaos) {
  expects(chaos != nullptr, "chaos schedule required");
  expects(stats_.messages_sent == 0, "install chaos before any send");
  chaos_ = std::move(chaos);
  chaos_->bind_clock([this]() { return simulator_.now(); });
}

void SimNetwork::send(Message message) {
  const obs::LayerScope layer(obs::Layer::kNetSend);
  ++stats_.messages_sent;
  stats_.bytes_sent += message.frame.size();
  if (distance_) {
    stats_.link_distance_sum +=
        distance_(message.source, message.destination);
  }
  observe(obs::RunEventKind::kSend, message);
  // The drop decision happens before the latency draw, so a dropped message
  // consumes nothing from the latency stream — and the chaos pipeline uses
  // its own streams, so installing a no-loss chaos schedule leaves the
  // network RNG sequence identical to a chaos-free run.
  SimTime extra = SimTime::zero();
  std::vector<SimTime> duplicates;
  if (chaos_) {
    ChaosDecision decision =
        chaos_->on_send(message.source, message.destination);
    if (decision.drop) {
      ++stats_.messages_dropped;
      observe(obs::RunEventKind::kDrop, message);
      return;
    }
    extra = decision.extra_delay;
    duplicates = std::move(decision.duplicate_delays);
  } else if (faults_.drops(message.source, message.destination, rng_)) {
    ++stats_.messages_dropped;
    observe(obs::RunEventKind::kDrop, message);
    return;
  }
  const SimTime delay =
      latency_->delay(message.source, message.destination, rng_) + extra;
  // The original is scheduled first: a duplicate landing at the same tick
  // loses the event-queue sequence tiebreak, so it can never preempt the
  // copy it was made from. Each schedule copies the message into the event;
  // duplicates reuse the frame already built — no re-encode, no deep copy.
  simulator_.schedule_frame_after(delay, message, *this);
  for (const SimTime offset : duplicates) {
    ++stats_.messages_duplicated;
    // A duplicate traverses the wire too: count its bytes exactly once, in
    // lockstep with the observability-layer bytes_on_wire counter.
    stats_.bytes_sent += message.frame.size();
    observe(obs::RunEventKind::kDuplicate, message);
    simulator_.schedule_frame_after(delay + offset, message, *this);
  }
}

void SimNetwork::deliver_frame(const Message& message) {
  Endpoint* endpoint = message.destination.value() < endpoints_.size()
                           ? endpoints_[message.destination.value()]
                           : nullptr;
  const bool alive = !is_alive_ || is_alive_(message.destination);
  if (endpoint == nullptr || !alive) {
    ++stats_.messages_dead_dest;
    observe(obs::RunEventKind::kDeadDest, message);
    return;
  }
  ++stats_.messages_delivered;
  observe(obs::RunEventKind::kDeliver, message);
  try {
    endpoint->on_message(message);
  } catch (const PreconditionError&) {
    // A corrupt or truncated payload must never take a node down: decoding
    // failures surface as PreconditionError (ByteReader, Partial checks);
    // the message is counted and dropped, the node keeps running.
    ++stats_.messages_malformed;
    observe(obs::RunEventKind::kMalformed, message);
  }
}

}  // namespace gridbox::net
