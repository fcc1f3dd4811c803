// Pending-event set: an indexed binary min-heap ordered by (time, id).
//
// Cancellation matters here because the network's fluid flow model
// reschedules transfer-completion events every time the set of concurrent
// transfers changes, so most scheduled events are cancelled before they
// fire. Heap entries are small (time, id) pairs; each event's callback and
// tag live in a slot table recycled through a free list, and every slot
// records where its entry sits in the heap. cancel() therefore removes the
// entry in place with one O(log n) sift, and the heap only ever holds
// pending events.
//
// The queue issues the ids: the schedule sequence number in the high bits,
// the slot index in the low bits. Ordering by id is thus ordering by
// schedule order, so equal-time events fire first-scheduled-first. A stale
// handle whose slot has been reused carries an older sequence number and
// fails the id compare, so it can never cancel the slot's new event.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event.hpp"

namespace chicsim::sim {

class EventQueue {
 public:
  /// Schedule `fn` at `time`; `tag` labels it for the profiler. Returns the
  /// handle cancel() takes. O(log n).
  EventId push(util::SimTime time, EventFn fn, const char* tag = nullptr);

  /// Remove a pending event; returns false when `id` is not pending
  /// (already fired, already cancelled, or never issued). O(log n).
  bool cancel(EventId id);

  /// True when no events are pending.
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  /// Number of pending events.
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Time of the earliest pending event; must not be called when empty.
  [[nodiscard]] util::SimTime next_time() const;

  /// Remove and return the earliest pending event; must not be called on empty.
  [[nodiscard]] Event pop();

  // --- performance counters (microbenchmarks, RunMetrics) ---

  /// Largest number of simultaneously pending events.
  [[nodiscard]] std::size_t peak_heap_size() const { return peak_heap_size_; }

  /// Total push() calls over the queue's lifetime.
  [[nodiscard]] std::uint64_t total_pushes() const { return total_pushes_; }

  /// Total successful cancel() calls over the queue's lifetime.
  [[nodiscard]] std::uint64_t total_cancels() const { return total_cancels_; }

 private:
  struct Entry {
    util::SimTime time = 0.0;
    EventId id = kNoEvent;
  };
  struct Slot {
    EventId id = kNoEvent;  ///< kNoEvent while the slot is free
    std::size_t pos = 0;    ///< index of this event's entry in heap_
    EventFn fn;
    const char* tag = nullptr;
  };

  static constexpr unsigned kSlotBits = 24;
  static constexpr EventId kSlotMask = (EventId{1} << kSlotBits) - 1;

  [[nodiscard]] static bool before(const Entry& a, const Entry& b) {
    return a.time != b.time ? a.time < b.time : a.id < b.id;
  }
  /// Store `e` at heap index `pos` and record that index in its slot.
  void place(std::size_t pos, const Entry& e);
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  /// Take heap_[pos] out of the heap and free its slot.
  void remove_at(std::size_t pos);

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  EventId next_seq_ = 1;
  std::size_t peak_heap_size_ = 0;
  std::uint64_t total_pushes_ = 0;
  std::uint64_t total_cancels_ = 0;
};

}  // namespace chicsim::sim
