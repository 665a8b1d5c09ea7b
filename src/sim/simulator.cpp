#include "src/sim/simulator.h"

#include <utility>

#include "src/common/ensure.h"
#include "src/obs/profile.h"  // leaf utility: standard library only

namespace gridbox::sim {

void Simulator::schedule_at(SimTime time, Action action) {
  if (time < now_) time = now_;
  queue_.push(time, std::move(action));
}

void Simulator::schedule_after(SimTime delay, Action action) {
  expects(delay.ticks() >= 0, "negative delay");
  queue_.push(now_ + delay, std::move(action));
}

void Simulator::schedule_frame_after(SimTime delay, const net::Message& message,
                                     FrameSink& sink) {
  expects(delay.ticks() >= 0, "negative delay");
  queue_.push(now_ + delay, DeliverFrame{message, &sink});
}

namespace {

// Self-rescheduling periodic action. Owns the tick callable by value and
// re-enqueues a copy of itself while the tick returns true, so there is no
// shared-ownership cycle and the chain dies naturally with the queue.
struct Repeater {
  Simulator* simulator;
  SimTime interval;
  std::function<bool()> tick;

  void operator()() {
    if (tick()) simulator->schedule_after(interval, Repeater{*this});
  }
};

}  // namespace

void Simulator::schedule_periodic(SimTime start, SimTime interval,
                                  std::function<bool()> tick) {
  expects(interval.ticks() > 0, "periodic interval must be positive");
  schedule_at(start, Repeater{this, interval, std::move(tick)});
}

void Simulator::schedule_periodic(SimTime start, SimTime interval,
                                  TimerTarget& target, std::uint32_t timer_id) {
  expects(interval.ticks() > 0, "periodic interval must be positive");
  if (start < now_) start = now_;
  queue_.push(start, TimerFire{&target, interval, timer_id});
}

void Simulator::schedule_timer_at(SimTime time, TimerTarget& target,
                                  std::uint32_t timer_id) {
  if (time < now_) time = now_;
  queue_.push(time, TimerFire{&target, SimTime::zero(), timer_id});
}

std::uint64_t Simulator::run() {
  const obs::LayerScope layer(obs::Layer::kSimLoop);
  std::uint64_t count = 0;
  while (step()) ++count;
  return count;
}

std::uint64_t Simulator::run_until(SimTime deadline) {
  const obs::LayerScope layer(obs::Layer::kSimLoop);
  std::uint64_t count = 0;
  while (!queue_.empty() && queue_.next_time() <= deadline) {
    (void)step();
    ++count;
  }
  if (now_ < deadline) now_ = deadline;
  return count;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  if (telemetry_ != nullptr) telemetry_->note_queue_depth(queue_.size());
  Event event = queue_.pop();
  ensures(event.time >= now_, "event queue returned an event from the past");
  now_ = event.time;
  ++executed_;
  execute(event);
  // Checked against the lifetime total in every entry point: a caller
  // driving step() itself, or looping over run()/run_until(), must not get
  // round the runaway guard.
  ensures(executed_ <= event_limit_,
          "event limit exceeded: likely a runaway reschedule loop");
  return true;
}

void Simulator::execute(Event& event) {
  // Each handler runs in its protocol layer (--profile); the queue work
  // around it stays in sim.loop.
  if (auto* action = std::get_if<Action>(&event.work)) {
    if (telemetry_ != nullptr) {
      telemetry_->actions_run.fetch_add(1, std::memory_order_relaxed);
    }
    const obs::LayerScope layer(obs::Layer::kProtocolsRound);
    (*action)();
  } else if (auto* deliver = std::get_if<DeliverFrame>(&event.work)) {
    if (telemetry_ != nullptr) {
      telemetry_->frames_delivered.fetch_add(1, std::memory_order_relaxed);
    }
    const obs::LayerScope layer(obs::Layer::kProtocolsRecv);
    deliver->sink->deliver_frame(deliver->message);
  } else {
    // Mirror Repeater's ordering exactly: the tick runs first, then the next
    // tick is enqueued, so event sequence numbers match the closure-based
    // engine and golden traces stay bitwise identical.
    auto& timer = std::get<TimerFire>(event.work);
    // Virtual-clock fires are exactly on time: lateness 0 by construction.
    if (telemetry_ != nullptr) telemetry_->note_timer_fired(0);
    bool again = false;
    {
      const obs::LayerScope layer(obs::Layer::kProtocolsRound);
      again = timer.target->on_timer(timer.timer_id);
    }
    if (again && timer.interval.ticks() > 0) {
      queue_.push(now_ + timer.interval, std::move(event.work));
    }
  }
}

}  // namespace gridbox::sim
