// The clock-and-timer interface protocols are written against.
//
// A protocol node is a state machine driven by two things: message
// deliveries (net::Transport) and timers. This interface is the timer half:
// it is everything the protocol layer may ask of "time". Two implementations
// exist:
//
//   - sim::Simulator: the discrete-event engine. now() is virtual time and
//     a run is a pure function of (configuration, seed).
//   - net::Reactor: real wall-clock time over a poll loop, driving the same
//     protocol code over real UDP sockets. Its timers sit in the same
//     EventQueue the simulator uses, fired in the same (deadline, arm
//     order).
//
// The interface deliberately excludes the simulator's frame-delivery and
// run-loop entry points (schedule_frame_after, run, step): those belong to
// the transport and the host, not to protocol code. Keeping the surface this
// narrow is what lets one protocol implementation run unmodified in both
// worlds — the differential oracle (src/runner/differential.h) depends on it.
#pragma once

#include <cstdint>

#include "src/common/types.h"
#include "src/sim/event_queue.h"

namespace gridbox::sim {

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Current time. Virtual microseconds under the simulator; microseconds
  /// since reactor start under the real-socket runtime.
  [[nodiscard]] virtual SimTime now() const = 0;

  /// Schedules an action at an absolute time (>= now; earlier times are
  /// clamped to now, which models "as soon as possible").
  virtual void schedule_at(SimTime time, Action action) = 0;

  /// Schedules an action after a relative delay (>= 0).
  virtual void schedule_after(SimTime delay, Action action) = 0;

  /// Typed periodic timer: fires target.on_timer(timer_id) at `start` and
  /// then every `interval` while it returns true. The target must outlive
  /// the chain. Allocation-free per firing under the simulator.
  virtual void schedule_periodic(SimTime start, SimTime interval,
                                 TimerTarget& target,
                                 std::uint32_t timer_id = 0) = 0;

  /// One-shot typed timer at an absolute time (clamped to now); the return
  /// value of on_timer is ignored.
  virtual void schedule_timer_at(SimTime time, TimerTarget& target,
                                 std::uint32_t timer_id = 0) = 0;
};

}  // namespace gridbox::sim
