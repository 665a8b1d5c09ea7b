#include "src/net/reactor.h"

#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <ctime>

#include <algorithm>
#include <utility>
#include <variant>

#include "src/common/ensure.h"

namespace gridbox::net {

Reactor::Reactor(Options /*options*/) {
  wait_fn_ = [](pollfd* fds, nfds_t nfds, SimTime timeout) {
    const timespec ts{
        static_cast<time_t>(timeout.ticks() / 1'000'000),
        static_cast<long>(timeout.ticks() % 1'000'000 * 1000)};
    return ::ppoll(fds, nfds, &ts, nullptr);
  };
}

Reactor::~Reactor() {
  const int fd = wake_fd_.load(std::memory_order_relaxed);
  if (fd >= 0) ::close(fd);
}

SimTime Reactor::read_clock() const {
  if (clock_fn_) return clock_fn_();
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return SimTime::micros(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count());
}

void Reactor::schedule_at(SimTime time, sim::Action action) {
  timers_.push(std::max(time, now()), std::move(action));
}

void Reactor::schedule_after(SimTime delay, sim::Action action) {
  expects(delay >= SimTime::zero(), "delay must be non-negative");
  schedule_at(now() + delay, std::move(action));
}

void Reactor::schedule_periodic(SimTime start, SimTime interval,
                                sim::TimerTarget& target,
                                std::uint32_t timer_id) {
  expects(interval > SimTime::zero(), "periodic interval must be positive");
  timers_.push(std::max(start, now()),
               sim::TimerFire{&target, interval, timer_id});
}

void Reactor::schedule_timer_at(SimTime time, sim::TimerTarget& target,
                                std::uint32_t timer_id) {
  timers_.push(std::max(time, now()),
               sim::TimerFire{&target, SimTime::zero(), timer_id});
}

void Reactor::add_fd(int fd, IoHandler& handler) {
  expects(fd >= 0, "invalid fd");
  pollfd p{};
  p.fd = fd;
  p.events = POLLIN;
  pollfds_.push_back(p);
  handlers_.push_back(&handler);
}

void Reactor::remove_fd(int fd) {
  for (std::size_t i = 0; i < pollfds_.size(); ++i) {
    if (handlers_[i] != nullptr && pollfds_[i].fd == fd) {
      pollfds_.erase(pollfds_.begin() + static_cast<std::ptrdiff_t>(i));
      handlers_.erase(handlers_.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

void Reactor::fire_due_timers() {
  loop_now_.store(read_clock().ticks(), std::memory_order_relaxed);
  fire_due(now());
}

void Reactor::post(sim::Action action) {
  bool was_empty = false;
  {
    std::lock_guard<std::mutex> guard(post_mutex_);
    was_empty = posted_.empty();
    posted_.push_back(std::move(action));
    // The one multi-writer telemetry site: any thread may post, so the
    // high-water update is a fetch-max race, not a single-writer add.
    telemetry_.note_queue_depth(posted_.size());
  }
  // Only the post that fills an empty inbox needs to wake the loop: a
  // non-empty inbox already has a wake pending, or is about to be drained.
  if (was_empty) wake();
}

void Reactor::wake() {
  // Before the loop first runs there is nothing to wake: its first pass
  // drains the inbox and probes done() anyway.
  const int fd = wake_fd_.load(std::memory_order_acquire);
  if (fd < 0) return;
  const std::uint64_t one = 1;
  // EAGAIN means the counter is saturated: a wake is pending either way.
  (void)!::write(fd, &one, sizeof one);
}

void Reactor::drain_posted() {
  // Swap the inbox out under its own lock, then run the batch on this
  // thread: post() never blocks on dispatch, and a posted action posting
  // onward (the retirement handshake hopping shards) lands in the fresh
  // inbox for the next iteration. The post_mutex_ acquire/release pair is
  // the happens-before edge that publishes the poster's prior writes.
  std::vector<sim::Action> batch;
  {
    std::lock_guard<std::mutex> guard(post_mutex_);
    if (posted_.empty()) return;
    batch.swap(posted_);
  }
  for (sim::Action& action : batch) {
    telemetry_.actions_run.fetch_add(1, std::memory_order_relaxed);
    action();
  }
}

std::size_t Reactor::count_timers_where(
    const std::function<bool(const sim::TimerTarget*)>& pred) const {
  return timers_.count_timers_where(pred);
}

void Reactor::fire_due(SimTime now) {
  // Take the whole due set out before firing any of it: whatever a fire
  // arms — a late re-arm, an action for now() — lands in the queue behind
  // this pass and waits for the next one, after I/O.
  due_.clear();
  while (!timers_.empty() && timers_.next_time() <= now) {
    sim::Event event = timers_.pop();
    Due& due = due_.emplace_back();
    due.deadline = event.time;
    if (const auto* timer = std::get_if<sim::TimerFire>(&event.work)) {
      due.timer = *timer;
    } else {
      due.action = std::move(std::get<sim::Action>(event.work));
    }
  }
  if (due_.empty()) return;
  telemetry_.dispatch_per_tick.observe(due_.size());
  for (Due& due : due_) {
    if (due.timer.target == nullptr) {
      telemetry_.actions_run.fetch_add(1, std::memory_order_relaxed);
      due.action();
      continue;
    }
    // Lateness vs the scheduled deadline — the wait's wakeup slack plus any
    // stall, the primary "is the loop keeping up" signal.
    telemetry_.note_timer_fired(
        static_cast<std::uint64_t>((now - due.deadline).ticks()));
    const bool again = due.timer.target->on_timer(due.timer.timer_id);
    if (again && due.timer.interval > SimTime::zero()) {
      // Re-arm one interval after the *scheduled* deadline, not after the
      // (late) fire time: rounds keep the simulator's cadence instead of
      // accumulating dispatch latency.
      timers_.push(due.deadline + due.timer.interval, due.timer);
    }
  }
  due_.clear();
}

void Reactor::flush_handlers() {
  for (IoHandler* handler : handlers_) {
    if (handler != nullptr) handler->flush();
  }
}

bool Reactor::run_until(const std::function<bool()>& done, SimTime deadline) {
  if (wake_fd_.load(std::memory_order_relaxed) < 0) {
    // The wake eventfd takes watch slot 0 (null handler) on the first run:
    // a reactor that never runs (setup probes, unit tests) costs no syscall
    // and allocates nothing. Opened before the first drain: a post() that
    // saw no fd yet pushed under post_mutex_ first, so that drain (or a
    // later one) finds it.
    pollfd p{};
    p.fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    p.events = POLLIN;
    expects(p.fd >= 0, "eventfd failed");
    pollfds_.insert(pollfds_.begin(), p);
    handlers_.insert(handlers_.begin(), nullptr);
    wake_fd_.store(p.fd, std::memory_order_release);
  }
  loop_now_.store(read_clock().ticks(), std::memory_order_relaxed);
  for (;;) {
    drain_posted();
    fire_due(now());
    // Sends made by this iteration's deliveries, posts and timers leave
    // in one batch per handler.
    flush_handlers();
    const bool finished = done();
    if (finished || now() >= deadline) {
      flush_handlers();  // anything done() itself sent
      return finished;
    }
    // Sleep to the earliest pending entry, the deadline capping it. The
    // pass took time, so measure the remaining sleep from a fresh reading.
    const SimTime wake_at =
        timers_.empty() ? deadline : std::min(timers_.next_time(), deadline);
    const SimTime timeout =
        std::max(SimTime::zero(), wake_at - read_clock());
    telemetry_.polls.fetch_add(1, std::memory_order_relaxed);
    const int n = wait_fn_(pollfds_.data(),
                           static_cast<nfds_t>(pollfds_.size()), timeout);
    // The loop time is read as soon as the wait returns, so the deliveries
    // below see the instant the loop woke, not the one it went to sleep at.
    loop_now_.store(read_clock().ticks(), std::memory_order_relaxed);
    if (n < 0) {
      // A signal interrupting the wait is routine (profilers, timers):
      // retry. Anything else is a programming error worth failing loudly on.
      expects(errno == EINTR, "ppoll failed");
      telemetry_.eintr_retries.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    auto& cause = n == 0 ? telemetry_.wakes_timeout : telemetry_.wakes_io;
    cause.fetch_add(1, std::memory_order_relaxed);
    if (n == 0) continue;  // a timer or the deadline came due, or spurious
    bool delivered = false;
    for (std::size_t i = 0; i < pollfds_.size(); ++i) {
      if ((pollfds_[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      pollfds_[i].revents = 0;
      if (handlers_[i] == nullptr) {
        // A post() or a peer's wake(): reset the eventfd; the next pass
        // drains the inbox after this read, so no post can slip between.
        std::uint64_t count = 0;
        (void)!::read(pollfds_[i].fd, &count, sizeof count);
        continue;
      }
      handlers_[i]->on_readable(pollfds_[i].fd);
      delivered = true;
    }
    // Deliveries take time: read the clock again after them, so the next
    // pass fires the timers that came due meanwhile instead of sleeping a
    // zero timeout first (libuv also refreshes at the top of each pass).
    if (delivered) {
      loop_now_.store(read_clock().ticks(), std::memory_order_relaxed);
    }
  }
}

}  // namespace gridbox::net
