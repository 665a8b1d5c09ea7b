// Deterministically ordered discrete-event queue with typed events.
#pragma once

#include <cstdint>
#include <functional>
#include <variant>
#include <vector>

#include "src/common/types.h"
#include "src/net/message.h"

namespace gridbox::sim {

/// Generic action executed when an event fires. The escape hatch for setup
/// and test code; the two hot event kinds below avoid std::function (and its
/// per-capture heap allocation) entirely.
using Action = std::function<void()>;

/// Receiver of an in-queue frame delivery. Implemented by net::SimNetwork;
/// the event stores the sink pointer instead of a closure so delivering a
/// message never allocates.
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  virtual void deliver_frame(const net::Message& message) = 0;
};

/// Receiver of a protocol timer tick. Returning true from on_timer asks the
/// simulator to re-arm the timer one interval later (periodic rounds);
/// returning false ends the chain.
class TimerTarget {
 public:
  virtual ~TimerTarget() = default;
  [[nodiscard]] virtual bool on_timer(std::uint32_t timer_id) = 0;
};

/// Message delivery: the frame rides inside the event, so the whole hop
/// (send -> queue -> deliver) is a couple of fixed-size copies.
struct DeliverFrame {
  net::Message message;
  FrameSink* sink = nullptr;
};

/// Protocol timer tick. interval > 0 makes it periodic: the simulator
/// re-arms it while the target's on_timer returns true.
struct TimerFire {
  TimerTarget* target = nullptr;
  SimTime interval = SimTime::zero();
  std::uint32_t timer_id = 0;
};

/// What fires when an event comes due.
using EventWork = std::variant<Action, DeliverFrame, TimerFire>;

/// A scheduled event. Events at equal times fire in scheduling order: the
/// monotone sequence number makes the whole simulation a deterministic
/// function of the seed, independent of container or heap internals.
struct Event {
  SimTime time;
  std::uint64_t sequence = 0;
  EventWork work;

  /// Executes the event's work once. Timer re-arming is the simulator's
  /// job (Simulator::step); firing a periodic TimerFire here invokes the
  /// target a single time and discards the reschedule request.
  void fire();
};

/// Min-queue of events ordered by (time, sequence).
///
/// Storage is a slab of Event bodies plus a binary heap of 24-byte
/// (time, sequence, slot) keys: heap sift operations move small keys, not
/// ~300-byte events, and freed slab slots are recycled through a LIFO free
/// list. In steady state (all vectors at capacity) push and pop perform
/// zero heap allocations — the property the zero-allocation message path
/// is built on, and the counting-allocator tests assert.
class EventQueue {
 public:
  /// Enqueues work at an absolute simulated time.
  void push(SimTime time, EventWork work);

  /// Pre-sizes heap and slab for `capacity` simultaneously pending events,
  /// so large-N runs reach steady state without reallocation during the
  /// initial burst.
  void reserve(std::size_t capacity) {
    heap_.reserve(capacity);
    slab_.reserve(capacity);
    free_slots_.reserve(capacity);
  }

  /// Removes and returns the earliest event. Requires !empty().
  [[nodiscard]] Event pop();

  /// Time of the earliest event. Requires !empty().
  [[nodiscard]] SimTime next_time() const;

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Total events ever pushed (also the next sequence number).
  [[nodiscard]] std::uint64_t total_pushed() const { return next_sequence_; }

  /// High-watermark of size() over the queue's lifetime (backlog telemetry:
  /// the event_queue_depth gauge). Deterministic — a pure function of the
  /// push/pop sequence.
  [[nodiscard]] std::size_t peak_size() const { return peak_size_; }

  /// Counts pending TimerFire events whose target satisfies `pred`. O(size):
  /// a cold-path probe the service runtime uses as a quiescence proof before
  /// destroying timer targets (a pending TimerFire holds a raw pointer into
  /// the node it would fire on).
  [[nodiscard]] std::size_t count_timers_where(
      const std::function<bool(const TimerTarget*)>& pred) const {
    std::size_t count = 0;
    for (const Key& key : heap_) {
      const auto* fire = std::get_if<TimerFire>(&slab_[key.slot].work);
      if (fire != nullptr && pred(fire->target)) ++count;
    }
    return count;
  }

 private:
  /// Heap element: orders events without touching their (large) bodies.
  struct Key {
    SimTime time;
    std::uint64_t sequence = 0;
    std::uint32_t slot = 0;
  };

  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };

  std::vector<Key> heap_;        ///< max-heap under Later, earliest on top
  std::vector<Event> slab_;      ///< event bodies, indexed by Key::slot
  std::vector<std::uint32_t> free_slots_;  ///< recycled slab indices (LIFO)
  std::uint64_t next_sequence_ = 0;
  std::size_t peak_size_ = 0;
};

}  // namespace gridbox::sim
