// The simulation engine: a virtual clock driving an event queue.
//
// All gridbox protocols are state machines driven by this engine; nothing in
// the library uses wall-clock time or threads, so every run is a pure,
// reproducible function of (configuration, seed).
//
// Two scheduling families exist side by side. The typed entry points
// (schedule_frame_after, the TimerTarget overload of schedule_periodic)
// carry their work inline in the event — zero heap allocations per event in
// steady state — and are what the transport and the protocol round loops
// use. The std::function entry points remain for setup, chaos scripting,
// and tests, where flexibility beats allocation counts.
#pragma once

#include <cstdint>
#include <functional>

#include "src/common/types.h"
#include "src/obs/telemetry.h"
#include "src/sim/event_queue.h"
#include "src/sim/scheduler.h"

namespace gridbox::sim {

/// Final so calls through a concrete Simulator& devirtualize: the Scheduler
/// interface costs nothing on the simulation hot path (the zero-allocation
/// proof binary pins the allocation half of that claim).
class Simulator final : public Scheduler {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const override { return now_; }

  /// Schedules an action at an absolute time (>= now; earlier times are
  /// clamped to now, which models "as soon as possible").
  void schedule_at(SimTime time, Action action) override;

  /// Schedules an action after a relative delay (>= 0).
  void schedule_after(SimTime delay, Action action) override;

  /// Schedules delivery of `message` to `sink` after `delay` (>= 0). The
  /// message travels inside the event — no closure, no allocation.
  void schedule_frame_after(SimTime delay, const net::Message& message,
                            FrameSink& sink);

  /// Schedules `tick` at `start` and then every `interval` until it returns
  /// false. Each tick reschedules itself, so cancellation is by return value.
  void schedule_periodic(SimTime start, SimTime interval,
                         std::function<bool()> tick);

  /// Typed periodic timer: fires target.on_timer(timer_id) at `start` and
  /// then every `interval` while it returns true. Equivalent ordering to the
  /// std::function overload (the tick runs, then the next tick is enqueued)
  /// but allocation-free per firing. The target must outlive the chain.
  void schedule_periodic(SimTime start, SimTime interval, TimerTarget& target,
                         std::uint32_t timer_id = 0) override;

  /// One-shot typed timer at an absolute time (clamped to now); the return
  /// value of on_timer is ignored.
  void schedule_timer_at(SimTime time, TimerTarget& target,
                         std::uint32_t timer_id = 0) override;

  /// Runs until the queue is empty. Returns events executed.
  std::uint64_t run();

  /// Runs until the queue is empty or simulated time would exceed `deadline`.
  /// Events at exactly `deadline` do fire.
  std::uint64_t run_until(SimTime deadline);

  /// Executes at most one event. Returns false if the queue was empty.
  bool step();

  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  [[nodiscard]] bool idle() const { return queue_.empty(); }

  /// Deepest the event queue ever got (event_queue_depth telemetry).
  [[nodiscard]] std::size_t peak_pending_events() const {
    return queue_.peak_size();
  }

  /// Pending typed-timer events whose target satisfies `pred` (see
  /// EventQueue::count_timers_where): the service runtime's quiescence
  /// probe before retiring an instance's nodes.
  [[nodiscard]] std::size_t count_timers_where(
      const std::function<bool(const TimerTarget*)>& pred) const {
    return queue_.count_timers_where(pred);
  }

  /// Hard cap on lifetime events executed (across run(), run_until(), and
  /// step() calls); exceeding it throws InvariantError. Guards against
  /// protocol bugs that reschedule forever.
  void set_event_limit(std::uint64_t limit) { event_limit_ = limit; }

  /// Pre-sizes the event queue for `capacity` simultaneously pending events
  /// (large-N runs: avoids reallocation churn during the start-skew burst).
  void reserve_events(std::size_t capacity) { queue_.reserve(capacity); }

  /// Arms live telemetry into `lane` (nullptr disarms). The simulator is
  /// one shard, so a run on this substrate fills exactly lane 0; timer
  /// lateness is always zero here — the virtual clock fires on time — which
  /// is precisely what makes the series golden-testable.
  void set_telemetry(obs::TelemetryLane* lane) { telemetry_ = lane; }

 private:
  void execute(Event& event);

  SimTime now_ = SimTime::zero();
  EventQueue queue_;
  std::uint64_t executed_ = 0;
  std::uint64_t event_limit_ = 500'000'000;
  obs::TelemetryLane* telemetry_ = nullptr;
};

}  // namespace gridbox::sim
