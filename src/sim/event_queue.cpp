#include "sim/event_queue.hpp"

#include <utility>

#include "util/error.hpp"

namespace chicsim::sim {

EventId EventQueue::push(util::SimTime time, EventFn fn, const char* tag) {
  CHICSIM_ASSERT_MSG(next_seq_ < (EventId{1} << (64 - kSlotBits)),
                     "event sequence numbers exhausted");
  if (free_slots_.empty()) {
    CHICSIM_ASSERT_MSG(slots_.size() <= kSlotMask, "too many pending events");
    free_slots_.push_back(static_cast<std::uint32_t>(slots_.size()));
    slots_.emplace_back();
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  const EventId id = (next_seq_++ << kSlotBits) | slot;
  Slot& s = slots_[slot];
  s.id = id;
  s.fn = std::move(fn);
  s.tag = tag;
  heap_.push_back(Entry{time, id});
  sift_up(heap_.size() - 1);
  ++total_pushes_;
  if (heap_.size() > peak_heap_size_) peak_heap_size_ = heap_.size();
  return id;
}

bool EventQueue::cancel(EventId id) {
  const EventId slot = id & kSlotMask;
  if (id == kNoEvent || slot >= slots_.size() || slots_[slot].id != id) return false;
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
  Slot& s = slots_[top.id & kSlotMask];
  Event event{top.time, top.id, std::move(s.fn), s.tag};
  remove_at(0);
  return event;
}

void EventQueue::remove_at(std::size_t pos) {
  const auto slot = static_cast<std::uint32_t>(heap_[pos].id & kSlotMask);
  slots_[slot].id = kNoEvent;
  slots_[slot].fn = nullptr;
  free_slots_.push_back(slot);

  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  heap_[pos] = last;
  if (pos > 0 && before(last, heap_[(pos - 1) / 2])) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

void EventQueue::place(std::size_t pos, const Entry& e) {
  heap_[pos] = e;
  slots_[e.id & kSlotMask].pos = pos;
}

void EventQueue::sift_up(std::size_t pos) {
  const Entry e = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!before(e, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, e);
}

void EventQueue::sift_down(std::size_t pos) {
  const Entry e = heap_[pos];
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], e)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, e);
}

}  // namespace chicsim::sim
