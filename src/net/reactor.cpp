#include "src/net/reactor.h"

#include <cerrno>

#include <algorithm>
#include <utility>

#include "src/common/ensure.h"

namespace gridbox::net {

Reactor::Reactor(Options options) : options_(options) {
  expects(options_.tick > SimTime::zero(), "wheel tick must be positive");
  expects(options_.slots > 0, "wheel needs at least one slot");
  wheel_.resize(options_.slots);
  poll_fn_ = [](pollfd* fds, nfds_t nfds, int timeout) {
    return ::poll(fds, nfds, timeout);
  };
}

SimTime Reactor::now() const {
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
    if (pollfds_[i].fd == fd) {
      pollfds_.erase(pollfds_.begin() + static_cast<std::ptrdiff_t>(i));
      handlers_.erase(handlers_.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

std::size_t Reactor::slot_of(SimTime deadline) const {
  // A slot whose tick was already processed is not revisited until the
  // wheel wraps a full lap later, so an entry due now (or in the already-
  // processed part of the current tick) must land in the next tick the
  // loop will visit — it then fires at most one quantum late.
  const std::int64_t tick =
      std::max<std::int64_t>(0, deadline.ticks()) / options_.tick.ticks();
  const std::int64_t effective = std::max(tick, last_tick_ + 1);
  return static_cast<std::size_t>(static_cast<std::uint64_t>(effective) %
                                  options_.slots);
}

void Reactor::insert(Entry entry) {
  wheel_[slot_of(entry.deadline)].push_back(std::move(entry));
  ++pending_timers_;
}

void Reactor::fire_due_timers() { advance_wheel(now()); }

void Reactor::post(sim::Action action) {
  std::lock_guard<std::mutex> guard(post_mutex_);
  posted_.push_back(std::move(action));
  // The one multi-writer telemetry site: any thread may post, so the
  // high-water update is a fetch-max race, not a single-writer add.
  telemetry_.note_queue_depth(posted_.size());
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
  std::vector<Entry> deferred;
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
        deferred.push_back(std::move(slot[i]));
      }
      slot[i] = std::move(slot.back());
      slot.pop_back();
    }
  }
  last_tick_ = cur_tick;
  pending_timers_ -= due_.size() + deferred.size();
  for (Entry& entry : deferred) insert(std::move(entry));
  if (due_.empty()) return;
  // Fire in deadline order, mirroring the simulator's time-ordered queue
  // (ties keep extraction order — there is no cross-thread order to match).
  std::stable_sort(due_.begin(), due_.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.deadline < b.deadline;
                   });
  telemetry_.dispatch_per_tick.observe(due_.size());
  for (Entry& entry : due_) {
    if (entry.target != nullptr) {
      // Lateness vs the scheduled deadline — the wheel's quantum plus any
      // poll stall, the primary "is the loop keeping up" signal.
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
  for (IoHandler* handler : handlers_) handler->flush();
}

bool Reactor::run_until(const std::function<bool()>& done, SimTime deadline) {
  const int timeout_ms = static_cast<int>(
      std::max<std::int64_t>(1, options_.tick.ticks() / 1000));
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
    telemetry_.polls.fetch_add(1, std::memory_order_relaxed);
    const int n = poll_fn_(pollfds_.empty() ? nullptr : pollfds_.data(),
                           static_cast<nfds_t>(pollfds_.size()), timeout_ms);
    if (n < 0) {
      // A signal interrupting poll is routine (profilers, timers): retry.
      // Anything else is a programming error worth failing loudly on.
      expects(errno == EINTR, "poll failed");
      telemetry_.eintr_retries.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    auto& cause = n == 0 ? telemetry_.wakes_timeout : telemetry_.wakes_io;
    cause.fetch_add(1, std::memory_order_relaxed);
    if (n == 0) continue;  // quantum elapsed, or a spurious wakeup
    for (std::size_t i = 0; i < pollfds_.size(); ++i) {
      if ((pollfds_[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      pollfds_[i].revents = 0;
      handlers_[i]->on_readable(pollfds_[i].fd);
    }
  }
}

}  // namespace gridbox::net
