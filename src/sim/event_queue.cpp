#include "sim/event_queue.hpp"

#include <utility>

#include "sim/indexed_heap.hpp"

namespace chicsim::sim {

EventId EventQueue::push_reserved(util::SimTime time, EventSeq seq, EventFn fn,
                                  const char* tag) {
  CHICSIM_ASSERT_MSG(seq != 0 && seq < next_seq_, "push under an unreserved sequence");
  if (free_slots_.empty()) {
    CHICSIM_ASSERT_MSG(slots_.size() <= kSlotMask, "too many pending events");
    free_slots_.push_back(static_cast<std::uint32_t>(slots_.size()));
    slots_.emplace_back();
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  ++total_pushes_;
  Slot& s = slots_[slot];
  s.handle = (total_pushes_ << kSlotBits) | slot;
  s.fn = std::move(fn);
  s.tag = tag;
  indexed_heap::push(heap_, Entry{time, (seq << kSlotBits) | slot}, before, place_fn());
  if (heap_.size() > peak_heap_size_) peak_heap_size_ = heap_.size();
  return s.handle;
}

bool EventQueue::cancel(EventId id) {
  const std::uint64_t slot = id & kSlotMask;
  if (id == kNoEvent || slot >= slots_.size() || slots_[slot].handle != id) return false;
  remove_at(slots_[slot].pos);
  ++total_cancels_;
  return true;
}

util::SimTime EventQueue::next_time() const {
  CHICSIM_ASSERT_MSG(!empty(), "next_time on empty queue");
  return heap_.front().time;
}

Event EventQueue::pop() {
  CHICSIM_ASSERT_MSG(!empty(), "pop on empty queue");
  const Entry top = heap_.front();
  Slot& s = slots_[top.key & kSlotMask];
  Event event{top.time, s.handle, std::move(s.fn), s.tag};
  remove_at(0);
  return event;
}

void EventQueue::remove_at(std::size_t pos) {
  const auto slot = static_cast<std::uint32_t>(heap_[pos].key & kSlotMask);
  slots_[slot].handle = kNoEvent;
  slots_[slot].fn = nullptr;
  free_slots_.push_back(slot);
  indexed_heap::erase(heap_, pos, before, place_fn());
}

}  // namespace chicsim::sim
