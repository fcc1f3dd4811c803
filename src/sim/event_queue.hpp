// Pending-event set: an indexed binary min-heap ordered by (time, sequence).
//
// Heap entries are small (time, key) pairs; each event's callback and tag
// live in a slot table recycled through a free list, and every slot records
// where its entry sits in the heap. cancel() therefore removes the entry in
// place with one O(log n) sift, and the heap only ever holds pending events.
//
// Every push takes the next schedule sequence number, so equal-time events
// fire first-scheduled-first. reserve() takes a sequence number without
// pushing; push_reserved() later schedules an event under it, which then
// orders exactly as if it had been pushed at reservation time. The
// TransferManager keeps one calendar entry this way: every completion it
// re-plans reserves the number its own push used to take, and only the
// earliest completion is pushed.
//
// A heap key is the sequence number in the high bits and the slot index in
// the low bits. The handle push() returns is built the same way from a
// count of pushes instead, so it is unique over the queue's lifetime even
// when one reserved sequence is pushed again: a stale handle never matches
// its slot's current handle and can never cancel the slot's new event.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event.hpp"
#include "util/error.hpp"

namespace chicsim::sim {

class EventQueue {
 public:
  /// Schedule `fn` at `time`; `tag` labels it for the profiler. Returns the
  /// handle cancel() takes. O(log n).
  EventId push(util::SimTime time, EventFn fn, const char* tag = nullptr) {
    return push_reserved(time, reserve(), std::move(fn), tag);
  }

  /// Take the sequence number the next push would take, without pushing.
  [[nodiscard]] EventSeq reserve() {
    CHICSIM_ASSERT_MSG(next_seq_ < (EventSeq{1} << (64 - kSlotBits)),
                       "event sequence numbers exhausted");
    return next_seq_++;
  }

  /// Schedule `fn` at `time` under a sequence number from reserve(): among
  /// equal-time events it fires where a push made at reservation would
  /// have. The reserver may push one sequence again after its event fired
  /// or was cancelled, but must not have two pending under it. O(log n).
  EventId push_reserved(util::SimTime time, EventSeq seq, EventFn fn, const char* tag = nullptr);

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
    std::uint64_t key = 0;  ///< (sequence << kSlotBits) | slot
  };
  struct Slot {
    EventId handle = kNoEvent;  ///< kNoEvent while the slot is free
    std::size_t pos = 0;        ///< index of this event's entry in heap_
    EventFn fn;
    const char* tag = nullptr;
  };

  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;

  [[nodiscard]] static bool before(const Entry& a, const Entry& b) {
    return a.time != b.time ? a.time < b.time : a.key < b.key;
  }
  /// The indexed_heap callback: record where an entry now sits.
  [[nodiscard]] auto place_fn() {
    return [this](const Entry& e, std::size_t pos) { slots_[e.key & kSlotMask].pos = pos; };
  }
  /// Take heap_[pos] out of the heap and free its slot.
  void remove_at(std::size_t pos);

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  EventSeq next_seq_ = 1;
  std::size_t peak_heap_size_ = 0;
  std::uint64_t total_pushes_ = 0;
  std::uint64_t total_cancels_ = 0;
};

}  // namespace chicsim::sim
