#include "src/sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "src/common/ensure.h"

namespace gridbox::sim {

void Event::fire() {
  if (auto* action = std::get_if<Action>(&work)) {
    (*action)();
  } else if (auto* deliver = std::get_if<DeliverFrame>(&work)) {
    deliver->sink->deliver_frame(deliver->message);
  } else if (auto* timer = std::get_if<TimerFire>(&work)) {
    (void)timer->target->on_timer(timer->timer_id);
  }
}

void EventQueue::push(SimTime time, EventWork work) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot].time = time;
    slab_[slot].sequence = next_sequence_;
    slab_[slot].work = std::move(work);
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(Event{time, next_sequence_, std::move(work)});
  }
  heap_.push_back(Key{time, next_sequence_, slot});
  ++next_sequence_;
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  if (heap_.size() > peak_size_) peak_size_ = heap_.size();
}

Event EventQueue::pop() {
  expects(!heap_.empty(), "pop on empty event queue");
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const std::uint32_t slot = heap_.back().slot;
  heap_.pop_back();
  Event event = std::move(slab_[slot]);
  // Leave the vacated slot holding a cheap monostate-like Action so a frame
  // or captured state is not kept alive until the slot is reused.
  slab_[slot].work = Action{};
  free_slots_.push_back(slot);
  return event;
}

SimTime EventQueue::next_time() const {
  expects(!heap_.empty(), "next_time on empty event queue");
  return heap_.front().time;
}

}  // namespace gridbox::sim
