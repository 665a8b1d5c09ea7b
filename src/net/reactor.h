// Real-time event loop: ppoll(2) over nonblocking sockets plus the
// simulator's timer queue, presented to protocol code as a sim::Scheduler.
//
// This is the real-world twin of sim::Simulator. The simulator advances a
// virtual clock to the next queued event; the reactor sleeps until it has
// work. Both hold their timers in one sim::EventQueue, ordered by
// (deadline, arm order). The reactor wakes for exactly four reasons: the
// earliest pending entry comes due (the queue's next_time(), to the µs), a
// socket turns readable, another thread post()s into an empty inbox (an
// eventfd write), or a peer shard leaves its loop (wake(), so a shard with
// no pending timer still sees done() promptly). The run deadline caps
// every sleep. Protocol nodes cannot tell the difference: start_rounds()
// arms the same typed TimerTarget chain, and on_timer's return value
// re-arms or stops the periodic timer exactly as in the simulator.
//
// Firing contract. A pass fires only the entries that were pending and due
// when it began, in (deadline, arm order), exactly as the simulator orders
// them. A periodic timer re-arms one interval after its *scheduled*
// deadline, not after its (late) fire time, so rounds keep the simulator's
// cadence. Anything armed during a pass — a late re-arm, an action armed
// for now() — waits for the next pass, after I/O, so a shard that is
// behind never fires a timer twice in one pass.
//
// Clock. now() is the loop time, read from steady_clock as soon as the wait
// returns, so deliveries see the instant the loop woke, and again after
// those deliveries, so the next pass's posts and timer fires see the time
// they run at (libuv likewise refreshes uv_now after epoll returns and at
// the top of each pass). Between reads every call sees one instant. It
// reads zero until the loop first runs, and a run binds all shards to one
// epoch just before it starts their threads, so timers armed during setup
// share the simulator's t=0 deadline and a shard fires a whole cohort's
// round in one pass.
//
// Threading model (docs/udp_runtime.md): a run shards its members over a
// few reactors, one thread each, and each shard OWNS its members end to
// end. Everything protocol-visible — timer fires, datagram deliveries,
// scheduled actions, the run_until done() probe — executes lock-free on
// the owning shard's thread, because every piece of state a callback
// touches is either shard-local (the member's node, its arena lanes, the
// shard's transport) or explicitly concurrency-safe (atomic Group
// liveness, the mutex-gated AuditRegistry, atomic completion counters).
// The reactor itself takes no dispatch lock; post() and wake() are the
// cross-thread entry points, and post()'s mutex hand-off is what publishes
// another thread's writes to this shard. now() is a relaxed atomic, so
// other shards may read it (the invariant checker stamps violations with the
// control shard's clock). Scheduling calls (schedule_*) are
// reactor-thread-local: they may be made during setup before the loop
// starts, or from inside a callback this reactor is running — never from
// another thread (cross-shard work goes through post()).
//
// Every loop count (timer fires, posted actions, polls, wake causes, EINTR
// retries, drain/dispatch histograms, post-queue high-water) lives in the
// reactor's own always-armed TelemetryLane, the only copy; the transport on
// this reactor writes its receive-side counts into the same lane.
//
// The loop tolerates EINTR (the wait is retried, counted), EAGAIN (drain
// loops simply end), and spurious wakeups (a wait return with nothing
// readable costs one bounded iteration) without busy-spinning: every
// iteration either dispatches work or sleeps until the next due entry.
#pragma once

#include <poll.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "src/common/types.h"
#include "src/obs/telemetry.h"
#include "src/sim/event_queue.h"
#include "src/sim/scheduler.h"

namespace gridbox::net {

/// Receiver of socket readiness. Implemented by UdpTransport.
class IoHandler {
 public:
  virtual ~IoHandler() = default;
  /// `fd` polled readable (possibly spuriously). Drain until EAGAIN.
  virtual void on_readable(int fd) = 0;
  /// Sends whatever the handler has buffered. The reactor calls it at the
  /// end of every loop iteration — before done() is probed and before the
  /// loop sleeps — so no datagram waits out a sleep in a userspace queue.
  virtual void flush() {}
};

class Reactor final : public sim::Scheduler {
 public:
  /// No knobs: the timer queue needs none. The empty struct keeps the
  /// constructor's signature for its callers.
  struct Options {};

  explicit Reactor(Options options);
  ~Reactor() override;
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Sets the steady_clock instant that maps to SimTime::zero() (default:
  /// construction). All reactors of one run share one epoch, bound at
  /// launch, so their clocks agree and start together.
  void bind_epoch(std::chrono::steady_clock::time_point epoch) {
    epoch_ = epoch;
  }

  /// The loop time: real microseconds since the epoch, as last read (on
  /// entering run_until, when a wait returns, after a wake's deliveries);
  /// zero before the loop first runs. Safe to read from any thread.
  [[nodiscard]] SimTime now() const override {
    return SimTime{loop_now_.load(std::memory_order_relaxed)};
  }

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

  /// Runs the wait/timer loop until `done()` returns true (probed once per
  /// iteration on this thread; a multi-shard done() must read only atomics)
  /// or the loop time passes `deadline`. Returns true iff done() turned
  /// true. Every handler is flushed before it returns.
  bool run_until(const std::function<bool()>& done, SimTime deadline);

  /// Enqueues an action to run on this reactor's thread. The one scheduling
  /// entry point that IS safe to call from other threads: schedule_* are
  /// reactor-thread-local, so cross-shard work (the service runtime starting
  /// an instance's nodes on their home shards) goes through here. Posted
  /// actions run on this reactor's thread at the top of the next loop
  /// iteration, in post order — the post_mutex_ hand-off makes the poster's
  /// prior writes visible to the action. A post into an empty inbox wakes a
  /// sleeping loop. Actions still queued when the loop exits are discarded.
  void post(sim::Action action);

  /// Ends the loop's current sleep, from any thread: the loop runs one pass
  /// and probes done(). A shard leaving run_until wakes its peers with it.
  void wake();

  /// Pending typed timers whose target satisfies `pred`. NOT thread-safe:
  /// call from this reactor's own thread — in practice from a post()ed
  /// action, where no pass is firing. The service runtime's retirement
  /// handshake counts an instance's timers to prove no pending timer still
  /// points into nodes about to be destroyed.
  [[nodiscard]] std::size_t count_timers_where(
      const std::function<bool(const sim::TimerTarget*)>& pred) const;

  /// Reads the clock into the loop time, then runs one pass: fires every
  /// entry pending and due by it once, without waiting. Exposed for
  /// mocked-reactor unit tests that drive the loop by hand.
  void fire_due_timers();

  /// Injectable wait: ppoll(2) over `fds` for at most `timeout` (µs
  /// precision, never negative). For tests that script EINTR, spurious
  /// wakeups and sleep lengths.
  using WaitFn = std::function<int(pollfd* fds, nfds_t nfds, SimTime timeout)>;
  void set_wait_fn(WaitFn fn) { wait_fn_ = std::move(fn); }

  /// Injectable clock, for tests that script timer lateness. When set, the
  /// loop reads it instead of steady_clock (the epoch is ignored).
  using ClockFn = std::function<SimTime()>;
  void set_clock_fn(ClockFn fn) { clock_fn_ = std::move(fn); }

  /// This shard's telemetry lane. Written only on this reactor's thread
  /// (post()'s queue high-water aside); other threads may read it live.
  [[nodiscard]] obs::TelemetryLane& telemetry() { return telemetry_; }
  [[nodiscard]] const obs::TelemetryLane& telemetry() const {
    return telemetry_;
  }

 private:
  /// Runs cross-thread post()ed actions on this thread, in post order.
  void drain_posted();
  /// One pass: takes every entry due by `now` out of the queue, then fires
  /// them in (deadline, arm order), re-arming surviving periodic timers.
  void fire_due(SimTime now);
  /// Reads the clock (scripted or steady_clock since the epoch).
  [[nodiscard]] SimTime read_clock() const;
  /// IoHandler::flush on every registered handler.
  void flush_handlers();

  /// An entry taken out of the queue for the pass that fires it: one
  /// cache line, where a queued sim::Event is sized for a whole frame.
  struct Due {
    SimTime deadline;
    sim::TimerFire timer;  ///< target null: `action` instead
    sim::Action action;
  };

  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::atomic<SimTime::underlying> loop_now_{0};
  sim::EventQueue timers_;  ///< typed timers (TimerFire) and actions
  std::vector<Due> due_;    ///< scratch: the entries this pass fires

  /// The wake eventfd, -1 until the loop first runs; then pollfds_[0].
  std::atomic<int> wake_fd_{-1};
  std::vector<pollfd> pollfds_;
  /// Parallel to pollfds_; null marks the wake eventfd's slot.
  std::vector<IoHandler*> handlers_;
  WaitFn wait_fn_;
  ClockFn clock_fn_;
  obs::TelemetryLane telemetry_;

  std::mutex post_mutex_;            ///< guards posted_ only
  std::vector<sim::Action> posted_;  ///< cross-thread inbox (post())
};

}  // namespace gridbox::net
