// Real-time event loop: poll(2) over nonblocking sockets plus a hashed
// timer wheel, presented to protocol code as a sim::Scheduler.
//
// This is the real-world twin of sim::Simulator. The simulator advances a
// virtual clock to the next queued event; the reactor sleeps in poll(2)
// until a socket turns readable or the next timer-wheel tick comes due, and
// reads its clock from steady_clock µs since a run-wide epoch. Protocol
// nodes cannot tell the difference: start_rounds() arms the same typed
// TimerTarget chain, and on_timer's return value re-arms or stops the
// periodic timer exactly as in the simulator.
//
// Threading model (docs/udp_runtime.md): a run shards its members over a
// few reactors, one thread each, and each shard OWNS its members end to
// end. Everything protocol-visible — timer fires, datagram deliveries,
// scheduled actions, the run_until done() probe — executes lock-free on
// the owning shard's thread, because every piece of state a callback
// touches is either shard-local (the member's node, its arena lanes, the
// shard's transport) or explicitly concurrency-safe (atomic Group
// liveness, the mutex-gated AuditRegistry, atomic completion counters).
// The reactor itself takes no dispatch lock; post() is the one
// cross-thread entry point, and its mutex hand-off is what publishes
// another thread's writes to this shard. Scheduling calls (schedule_*)
// are reactor-thread-local: they may be made during setup before the loop
// starts, or from inside a callback this reactor is running — never from
// another thread (cross-shard work goes through post()).
//
// Every loop count (timer fires, posted actions, polls, wake causes, EINTR
// retries, drain/dispatch histograms, post-queue high-water) lives in the
// reactor's own always-armed TelemetryLane, the only copy; the transport on
// this reactor writes its receive-side counts into the same lane.
//
// The loop tolerates EINTR (poll retried, counted), EAGAIN (drain loops
// simply end), and spurious wakeups (a poll return with nothing readable
// costs one bounded iteration) without busy-spinning: every iteration
// either dispatches work or sleeps in poll for the tick quantum.
#pragma once

#include <poll.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "src/common/types.h"
#include "src/obs/telemetry.h"
#include "src/sim/scheduler.h"

namespace gridbox::net {

/// Receiver of socket readiness. Implemented by UdpTransport.
class IoHandler {
 public:
  virtual ~IoHandler() = default;
  /// `fd` polled readable (possibly spuriously). Drain until EAGAIN.
  virtual void on_readable(int fd) = 0;
  /// Sends whatever the handler has buffered. The reactor calls it at the
  /// end of every loop iteration — before done() is probed and before
  /// poll sleeps — so no datagram waits out a sleep in a userspace queue.
  virtual void flush() {}
};

class Reactor final : public sim::Scheduler {
 public:
  struct Options {
    /// Timer wheel tick quantum; also the poll sleep bound, so a timer
    /// fires at most ~one quantum late.
    SimTime tick = SimTime::millis(1);
    /// Wheel slots; horizon before a wrap is tick * slots (entries past
    /// the horizon simply wait out extra laps).
    std::size_t slots = 4096;
  };

  explicit Reactor(Options options);
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Sets the steady_clock instant that maps to SimTime::zero(). All
  /// reactors of one run share one epoch so their clocks agree.
  void bind_epoch(std::chrono::steady_clock::time_point epoch) {
    epoch_ = epoch;
  }

  /// Real microseconds since the epoch.
  [[nodiscard]] SimTime now() const override;

  // sim::Scheduler — same clamping semantics as the simulator: times in
  // the past mean "as soon as possible".
  void schedule_at(SimTime time, sim::Action action) override;
  void schedule_after(SimTime delay, sim::Action action) override;
  void schedule_periodic(SimTime start, SimTime interval,
                         sim::TimerTarget& target,
                         std::uint32_t timer_id = 0) override;
  void schedule_timer_at(SimTime time, sim::TimerTarget& target,
                         std::uint32_t timer_id = 0) override;

  /// Registers `fd` for readability watching. The handler must outlive the
  /// registration.
  void add_fd(int fd, IoHandler& handler);
  void remove_fd(int fd);

  /// Runs the poll/timer loop until `done()` returns true (probed once per
  /// iteration on this thread; a multi-shard done() must read only atomics)
  /// or the real clock passes `deadline`. Returns true iff done() turned
  /// true. Every handler is flushed before it returns.
  bool run_until(const std::function<bool()>& done, SimTime deadline);

  /// Enqueues an action to run on this reactor's thread. The one scheduling
  /// entry point that IS safe to call from other threads: schedule_* are
  /// reactor-thread-local, so cross-shard work (the service runtime starting
  /// an instance's nodes on their home shards) goes through here. Posted
  /// actions run on this reactor's thread at the top of the next loop
  /// iteration, in post order — the post_mutex_ hand-off makes the poster's
  /// prior writes visible to the action. Actions still queued when the loop
  /// exits are discarded.
  void post(sim::Action action);

  /// Pending wheel timers (typed entries) whose target satisfies `pred`.
  /// NOT thread-safe: call from this reactor's own thread — in practice
  /// from a post()ed action, where the wheel is quiescent. The service
  /// runtime's retirement handshake counts an instance's timers to prove no
  /// wheel entry still points into nodes about to be destroyed.
  [[nodiscard]] std::size_t count_timers_where(
      const std::function<bool(const sim::TimerTarget*)>& pred) const;

  /// Fires every timer due at or before now() once, without polling.
  /// Exposed for mocked-reactor unit tests that drive the loop by hand.
  void fire_due_timers();

  /// Injectable poll(2), for tests that script EINTR and spurious wakeups.
  using PollFn = std::function<int(pollfd*, nfds_t, int)>;
  void set_poll_fn(PollFn fn) { poll_fn_ = std::move(fn); }

  /// Injectable clock, for tests that script timer lateness. When set,
  /// now() reads it instead of steady_clock (the epoch is ignored).
  using ClockFn = std::function<SimTime()>;
  void set_clock_fn(ClockFn fn) { clock_fn_ = std::move(fn); }

  /// This shard's telemetry lane. Written only on this reactor's thread
  /// (post()'s queue high-water aside); other threads may read it live.
  [[nodiscard]] obs::TelemetryLane& telemetry() { return telemetry_; }
  [[nodiscard]] const obs::TelemetryLane& telemetry() const {
    return telemetry_;
  }

 private:
  /// One wheel entry: either a typed timer (target != null) or an action.
  struct Entry {
    SimTime deadline;
    SimTime interval;  ///< zero = one-shot
    sim::TimerTarget* target = nullptr;
    std::uint32_t timer_id = 0;
    sim::Action action;  ///< used when target == null
  };

  void insert(Entry entry);
  /// Runs cross-thread post()ed actions on this thread, in post order.
  void drain_posted();
  [[nodiscard]] std::size_t slot_of(SimTime deadline) const;
  /// Collects due entries from slots in (last_tick_, now-tick], fires them
  /// on this thread, re-inserts surviving periodic timers.
  void advance_wheel(SimTime now);
  /// IoHandler::flush on every registered handler.
  void flush_handlers();

  Options options_;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::vector<std::vector<Entry>> wheel_;
  std::int64_t last_tick_ = -1;  ///< last wheel tick fully processed
  std::size_t pending_timers_ = 0;
  std::vector<Entry> due_;  ///< scratch: entries being fired this pass

  std::vector<pollfd> pollfds_;
  std::vector<IoHandler*> handlers_;  ///< parallel to pollfds_
  PollFn poll_fn_;
  ClockFn clock_fn_;
  obs::TelemetryLane telemetry_;

  std::mutex post_mutex_;            ///< guards posted_ only
  std::vector<sim::Action> posted_;  ///< cross-thread inbox (post())
};

}  // namespace gridbox::net
