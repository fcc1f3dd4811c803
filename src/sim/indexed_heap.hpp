// Sift operations for an indexed binary min-heap.
//
// The heap is a plain std::vector of small entries. `before(a, b)` is the
// strict order (a fires first); `place(entry, pos)` stores nothing itself
// but tells the owner that `entry` now sits at index `pos`, so the owner can
// later find the entry again and remove or re-key it in place with one
// O(log n) sift. The event calendar and the TransferManager's completion
// heap both keep their entries this way.
#pragma once

#include <cstddef>
#include <vector>

namespace chicsim::sim::indexed_heap {

template <class Entry, class Before, class Place>
void sift_up(std::vector<Entry>& heap, std::size_t pos, Before before, Place place) {
  const Entry e = heap[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!before(e, heap[parent])) break;
    heap[pos] = heap[parent];
    place(heap[pos], pos);
    pos = parent;
  }
  heap[pos] = e;
  place(e, pos);
}

template <class Entry, class Before, class Place>
void sift_down(std::vector<Entry>& heap, std::size_t pos, Before before, Place place) {
  const Entry e = heap[pos];
  const std::size_t n = heap.size();
  while (true) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap[child + 1], heap[child])) ++child;
    if (!before(heap[child], e)) break;
    heap[pos] = heap[child];
    place(heap[pos], pos);
    pos = child;
  }
  heap[pos] = e;
  place(e, pos);
}

/// Restore order after the entry at `pos` was overwritten with a new key.
template <class Entry, class Before, class Place>
void fix(std::vector<Entry>& heap, std::size_t pos, Before before, Place place) {
  if (pos > 0 && before(heap[pos], heap[(pos - 1) / 2])) {
    sift_up(heap, pos, before, place);
  } else {
    sift_down(heap, pos, before, place);
  }
}

/// Append `e` and sift it into place.
template <class Entry, class Before, class Place>
void push(std::vector<Entry>& heap, const Entry& e, Before before, Place place) {
  heap.push_back(e);
  sift_up(heap, heap.size() - 1, before, place);
}

/// Remove the entry at `pos`; the owner forgets that entry's index itself.
template <class Entry, class Before, class Place>
void erase(std::vector<Entry>& heap, std::size_t pos, Before before, Place place) {
  const Entry last = heap.back();
  heap.pop_back();
  if (pos == heap.size()) return;
  heap[pos] = last;
  fix(heap, pos, before, place);
}

}  // namespace chicsim::sim::indexed_heap
