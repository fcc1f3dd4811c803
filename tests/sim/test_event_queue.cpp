#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace chicsim::sim {
namespace {

EventId push_at(EventQueue& q, util::SimTime t) { return q.push(t, [] {}); }

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  push_at(q, 3.0);
  push_at(q, 1.0);
  push_at(q, 2.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 1.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 2.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 3.0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TiesBreakByScheduleOrder) {
  EventQueue q;
  EventId a = push_at(q, 5.0);
  EventId b = push_at(q, 5.0);
  EventId c = push_at(q, 5.0);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(q.pop().id, a);
  EXPECT_EQ(q.pop().id, b);
  EXPECT_EQ(q.pop().id, c);
}

TEST(EventQueue, PopReturnsCallbackAndTag) {
  EventQueue q;
  int fired = 0;
  q.push(1.0, [&] { ++fired; }, "tick");
  Event e = q.pop();
  EXPECT_STREQ(e.tag, "tick");
  e.fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, NextTimePeeksWithoutRemoving) {
  EventQueue q;
  push_at(q, 4.0);
  EXPECT_DOUBLE_EQ(q.next_time(), 4.0);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelRemovesEvent) {
  EventQueue q;
  EventId a = push_at(q, 1.0);
  EventId b = push_at(q, 2.0);
  EXPECT_TRUE(q.cancel(a));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
  EXPECT_EQ(q.pop().id, b);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, GarbageIdCancelsNothing) {
  EventQueue q;
  EventId a = push_at(q, 1.0);
  EXPECT_FALSE(q.cancel(kNoEvent));
  EXPECT_FALSE(q.cancel(99));
  EXPECT_FALSE(q.cancel(a + 1));
  EXPECT_FALSE(q.cancel(std::numeric_limits<EventId>::max()));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.total_cancels(), 0u);
  EXPECT_EQ(q.pop().id, a);
}

TEST(EventQueue, DoubleCancelReturnsFalse) {
  EventQueue q;
  EventId a = push_at(q, 1.0);
  EXPECT_TRUE(q.cancel(a));
  EXPECT_FALSE(q.cancel(a));
}

TEST(EventQueue, CancelOfPoppedEventReturnsFalse) {
  EventQueue q;
  EventId a = push_at(q, 1.0);
  (void)q.pop();
  EXPECT_FALSE(q.cancel(a));
}

// A handle outlives its event; once the slot is recycled for a new event,
// the old handle must not reach it.
TEST(EventQueue, StaleHandleAfterSlotReuseCannotCancel) {
  EventQueue q;
  EventId popped = push_at(q, 1.0);
  (void)q.pop();
  EventId cancelled = push_at(q, 2.0);
  EXPECT_TRUE(q.cancel(cancelled));
  int fired = 0;
  EventId fresh = q.push(3.0, [&] { ++fired; });
  EXPECT_NE(fresh, popped);
  EXPECT_NE(fresh, cancelled);
  EXPECT_FALSE(q.cancel(popped));
  EXPECT_FALSE(q.cancel(cancelled));
  ASSERT_EQ(q.size(), 1u);
  Event e = q.pop();
  EXPECT_EQ(e.id, fresh);
  e.fn();
  EXPECT_EQ(fired, 1);
}

// An event pushed under a reserved sequence ties with equal-time events
// exactly as if it had been pushed at reservation time, whatever was pushed
// in between.
TEST(EventQueue, ReservedSequenceOrdersLikeAnImmediatePush) {
  EventQueue immediate;
  EventId a = push_at(immediate, 5.0);
  EventId b = push_at(immediate, 5.0);
  EventId c = push_at(immediate, 5.0);

  EventQueue reserved;
  EventId rb0 = push_at(reserved, 5.0);
  EventSeq seq = reserved.reserve();
  EventId rc = push_at(reserved, 5.0);
  EventId rb = reserved.push_reserved(5.0, seq, [] {});
  EXPECT_EQ(reserved.total_pushes(), 3u);

  const std::vector<EventId> want = {a, b, c};
  const std::vector<EventId> got_order = {rb0, rb, rc};
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(immediate.pop().id, want[i]);
    EXPECT_EQ(reserved.pop().id, got_order[i]);
  }
  // Time still comes first: a reserved sequence only breaks ties.
  EventSeq early = reserved.reserve();
  EventId later_time = reserved.push_reserved(9.0, early, [] {});
  EventId sooner = push_at(reserved, 8.0);
  EXPECT_EQ(reserved.pop().id, sooner);
  EXPECT_EQ(reserved.pop().id, later_time);
}

// One reserved sequence may be pushed again after its event was cancelled
// (the TransferManager re-pushes its head this way); each push gets a fresh
// handle, so the stale one cancels nothing even when the slot is reused.
TEST(EventQueue, StaleHandleOfARepushedReservedSequenceCancelsNothing) {
  EventQueue q;
  EventSeq seq = q.reserve();
  EventId first = q.push_reserved(4.0, seq, [] {});
  EXPECT_TRUE(q.cancel(first));
  int fired = 0;
  EventId second = q.push_reserved(4.0, seq, [&] { ++fired; });
  EXPECT_NE(first, second);
  EXPECT_FALSE(q.cancel(first));
  ASSERT_EQ(q.size(), 1u);
  Event e = q.pop();
  EXPECT_EQ(e.id, second);
  e.fn();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(q.cancel(second));
}

TEST(EventQueue, PushUnderUnreservedSequenceThrows) {
  EventQueue q;
  EXPECT_THROW((void)q.push_reserved(1.0, 0, [] {}), util::SimError);
  EXPECT_THROW((void)q.push_reserved(1.0, 7, [] {}), util::SimError);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EmptyPopThrows) {
  EventQueue q;
  EXPECT_THROW((void)q.pop(), util::SimError);
  EXPECT_THROW((void)q.next_time(), util::SimError);
}

// Property: under random interleavings of push/cancel/pop (including
// cancels through stale handles), pops are monotone in (time, id) and every
// live event is delivered exactly once.
TEST(EventQueue, PropertyRandomWorkloadStaysOrdered) {
  util::Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    EventQueue q;
    std::vector<EventId> live;
    std::vector<EventId> dead;
    std::size_t delivered = 0;
    std::size_t pushed = 0;
    std::size_t cancelled = 0;
    util::SimTime last_time = -1.0;
    EventId last_id = 0;
    for (int step = 0; step < 500; ++step) {
      double action = rng.uniform(0.0, 1.0);
      if (action < 0.5) {
        // Like the engine, never schedule before the current (last popped)
        // time — pop order is only monotone under that discipline.
        double t = std::max(last_time, 0.0) + rng.uniform(0.0, 100.0);
        live.push_back(push_at(q, t));
        ++pushed;
      } else if (action < 0.6 && !dead.empty()) {
        EXPECT_FALSE(q.cancel(dead[rng.index(dead.size())]));
      } else if (action < 0.75 && !live.empty()) {
        std::size_t pick = rng.index(live.size());
        EXPECT_TRUE(q.cancel(live[pick]));
        dead.push_back(live[pick]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        ++cancelled;
      } else if (!q.empty()) {
        Event e = q.pop();
        EXPECT_TRUE(e.time > last_time || (e.time == last_time && e.id > last_id));
        last_time = e.time;
        last_id = e.id;
        ++delivered;
        auto it = std::find(live.begin(), live.end(), e.id);
        ASSERT_NE(it, live.end());
        live.erase(it);
        dead.push_back(e.id);
      }
      ASSERT_EQ(q.size(), live.size());
    }
    while (!q.empty()) {
      Event e = q.pop();
      EXPECT_TRUE(e.time > last_time || (e.time == last_time && e.id > last_id));
      last_time = e.time;
      last_id = e.id;
      ++delivered;
    }
    EXPECT_EQ(delivered + cancelled, pushed);
  }
}

// Cancel-heavy churn, like transfer completions under heavy reallocation:
// push batches and cancel nearly all of them. The queue holds exactly the
// live events throughout, and delivers the survivors in (time, id) order.
TEST(EventQueue, CancelChurnKeepsOnlyLiveEvents) {
  util::Rng rng(1234);
  EventQueue q;
  std::vector<std::pair<util::SimTime, EventId>> survivors;
  for (int round = 0; round < 200; ++round) {
    std::vector<std::pair<util::SimTime, EventId>> batch;
    for (int i = 0; i < 50; ++i) {
      double t = rng.uniform(0.0, 1e6);
      batch.emplace_back(t, push_at(q, t));
    }
    for (std::size_t i = 0; i + 1 < batch.size(); ++i) {  // keep 1 of 50
      EXPECT_TRUE(q.cancel(batch[i].second));
    }
    survivors.push_back(batch.back());
    EXPECT_EQ(q.size(), survivors.size());
  }
  EXPECT_EQ(q.total_pushes(), 200u * 50u);
  EXPECT_EQ(q.total_cancels(), 200u * 49u);
  // Peak pending: 199 survivors of earlier rounds plus the last full batch.
  EXPECT_EQ(q.peak_heap_size(), 199u + 50u);

  std::sort(survivors.begin(), survivors.end());
  for (const auto& [t, id] : survivors) {
    Event e = q.pop();
    EXPECT_EQ(e.id, id);
    EXPECT_DOUBLE_EQ(e.time, t);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CountersTrackSmallWorkload) {
  EventQueue q;
  EventId a = push_at(q, 1.0);
  EventId b = push_at(q, 2.0);
  EventId c = push_at(q, 3.0);
  EXPECT_EQ(q.total_pushes(), 3u);
  EXPECT_EQ(q.peak_heap_size(), 3u);
  EXPECT_TRUE(q.cancel(b));
  EXPECT_EQ(q.total_cancels(), 1u);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop().id, a);
  EXPECT_EQ(q.pop().id, c);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.peak_heap_size(), 3u);
}

}  // namespace
}  // namespace chicsim::sim
