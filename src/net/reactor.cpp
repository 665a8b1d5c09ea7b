#include "src/net/reactor.h"

#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <ctime>

#include <algorithm>
#include <utility>

#include "src/common/ensure.h"

namespace gridbox::net {

Reactor::Reactor(Options options) : options_(options) {
  expects(options_.tick > SimTime::zero(), "wheel tick must be positive");
  expects(options_.slots > 0, "wheel needs at least one slot");
  wheel_.resize(options_.slots);
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
  Entry entry;
  entry.deadline = std::max(time, now());
  entry.action = std::move(action);
  insert(std::move(entry));
}

void Reactor::schedule_after(SimTime delay, sim::Action action) {
  expects(delay >= SimTime::zero(), "delay must be non-negative");
  schedule_at(now() + delay, std::move(action));
}

void Reactor::schedule_periodic(SimTime start, SimTime interval,
                                sim::TimerTarget& target,
                                std::uint32_t timer_id) {
  expects(interval > SimTime::zero(), "periodic interval must be positive");
  Entry entry;
  entry.deadline = std::max(start, now());
  entry.interval = interval;
  entry.target = &target;
  entry.timer_id = timer_id;
  insert(std::move(entry));
}

void Reactor::schedule_timer_at(SimTime time, sim::TimerTarget& target,
                                std::uint32_t timer_id) {
  Entry entry;
  entry.deadline = std::max(time, now());
  entry.target = &target;
  entry.timer_id = timer_id;
  insert(std::move(entry));
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

std::int64_t Reactor::tick_of(SimTime deadline) const {
  // A slot whose tick was already processed is not revisited until the
  // wheel wraps a full lap later, so an entry due now (or in the already-
  // processed part of the current tick) must land in the next tick the
  // loop will visit — it then fires at most one quantum late.
  const std::int64_t tick =
      std::max<std::int64_t>(0, deadline.ticks()) / options_.tick.ticks();
  return std::max(tick, last_tick_ + 1);
}

void Reactor::insert(Entry entry) {
  wheel_[static_cast<std::uint64_t>(tick_of(entry.deadline)) % options_.slots]
      .push_back(std::move(entry));
  ++pending_timers_;
}

SimTime Reactor::next_wake() const {
  if (pending_timers_ == 0) return kNever;
  // Walk one lap of ticks from the next unprocessed one. Every entry a slot
  // holds for its current lap is processed in that tick, so the first slot
  // holding one bounds the wake: no later slot can fire earlier.
  const std::int64_t tick_us = options_.tick.ticks();
  const auto slots = static_cast<std::int64_t>(options_.slots);
  SimTime wake = kNever;
  for (std::int64_t t = last_tick_ + 1; t <= last_tick_ + slots; ++t) {
    const SimTime tick_start{t * tick_us};
    for (const Entry& entry :
         wheel_[static_cast<std::size_t>(t) % options_.slots]) {
      if (entry.deadline.ticks() / tick_us > t) continue;  // a later lap
      wake = std::min(wake, std::max(entry.deadline, tick_start));
    }
    if (wake != kNever) return wake;
  }
  // Every entry waits out a later lap: revisit the wheel one lap on.
  return SimTime{(last_tick_ + slots + 1) * tick_us};
}

void Reactor::fire_due_timers() {
  loop_now_.store(read_clock().ticks(), std::memory_order_relaxed);
  advance_wheel(now());
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
  std::size_t count = 0;
  for (const auto& slot : wheel_) {
    for (const Entry& entry : slot) {
      if (entry.target != nullptr && pred(entry.target)) ++count;
    }
  }
  return count;
}

void Reactor::advance_wheel(SimTime now) {
  if (pending_timers_ == 0) {
    last_tick_ = now.ticks() / options_.tick.ticks();
    return;
  }
  const std::int64_t cur_tick = now.ticks() / options_.tick.ticks();
  // Visit each slot between the last processed tick and now. After a stall
  // longer than one lap every slot is due anyway, so one full sweep covers
  // the gap without walking tick-by-tick through it.
  const std::int64_t span =
      std::min<std::int64_t>(cur_tick - last_tick_,
                             static_cast<std::int64_t>(options_.slots));
  if (span <= 0) return;
  due_.clear();
  deferred_.clear();
  const std::int64_t tick_us = options_.tick.ticks();
  for (std::int64_t t = cur_tick - span + 1; t <= cur_tick; ++t) {
    auto& slot = wheel_[static_cast<std::size_t>(t) % options_.slots];
    for (std::size_t i = 0; i < slot.size();) {
      const std::int64_t entry_tick = slot[i].deadline.ticks() / tick_us;
      if (entry_tick > cur_tick) {
        // An earlier wheel lap shares this slot; parked until its own lap.
        ++i;
        continue;
      }
      // This slot is not revisited until the wheel wraps, so everything
      // belonging to the processed ticks must leave it now: entries due
      // by `now` fire, ones due later in the current tick migrate to the
      // next tick's slot (and fire at most one quantum late).
      if (slot[i].deadline <= now) {
        due_.push_back(std::move(slot[i]));
      } else {
        deferred_.push_back(std::move(slot[i]));
      }
      slot[i] = std::move(slot.back());
      slot.pop_back();
    }
  }
  last_tick_ = cur_tick;
  pending_timers_ -= due_.size() + deferred_.size();
  for (Entry& entry : deferred_) insert(std::move(entry));
  deferred_.clear();
  if (due_.empty()) return;
  // Fire in deadline order, mirroring the simulator's time-ordered queue
  // (ties keep extraction order — there is no cross-thread order to match).
  // A cohort armed for one deadline is already in order: skip the sort.
  const auto by_deadline = [](const Entry& a, const Entry& b) {
    return a.deadline < b.deadline;
  };
  if (!std::is_sorted(due_.begin(), due_.end(), by_deadline)) {
    std::stable_sort(due_.begin(), due_.end(), by_deadline);
  }
  telemetry_.dispatch_per_tick.observe(due_.size());
  for (Entry& entry : due_) {
    if (entry.target != nullptr) {
      // Lateness vs the scheduled deadline — the wheel's quantum plus any
      // wait stall, the primary "is the loop keeping up" signal.
      telemetry_.note_timer_fired(
          static_cast<std::uint64_t>((now - entry.deadline).ticks()));
      const bool again = entry.target->on_timer(entry.timer_id);
      if (again && entry.interval > SimTime::zero()) {
        // Re-arm one interval after the *scheduled* deadline, not after
        // the (late) fire time: rounds keep the simulator's cadence
        // instead of accumulating dispatch latency.
        entry.deadline += entry.interval;
        insert(std::move(entry));
      }
    } else {
      telemetry_.actions_run.fetch_add(1, std::memory_order_relaxed);
      entry.action();
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
    // and allocates only its wheel. Opened before the first drain: a post()
    // that saw no fd yet pushed under post_mutex_ first, so that drain (or
    // a later one) finds it.
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
    advance_wheel(now());
    // Sends made by this iteration's deliveries, posts and timers leave
    // in one batch per handler.
    flush_handlers();
    const bool finished = done();
    if (finished || now() >= deadline) {
      flush_handlers();  // anything done() itself sent
      return finished;
    }
    // Sleep to the earliest due tick, the deadline capping it. The pass
    // took time, so measure the remaining sleep from a fresh reading.
    const SimTime wake_at = std::min(next_wake(), deadline);
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
