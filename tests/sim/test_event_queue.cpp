#include "sim/event_queue.hpp"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

namespace bbrnash {
namespace {

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kTimeInf);
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(42, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, MixedTimesAndTies) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(5, [&] { order.push_back(1); });
  q.schedule(5, [&] { order.push_back(2); });
  q.schedule(1, [&] { order.push_back(0); });
  q.schedule(9, [&] { order.push_back(3); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, PopReturnsScheduledTime) {
  EventQueue q;
  q.schedule(77, [] {});
  EXPECT_EQ(q.next_time(), 77);
  auto ev = q.pop();
  EXPECT_EQ(ev.when, 77);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.schedule_cancellable(10, [&] { ++fired; });
  q.schedule(20, [&] { fired += 100; });
  q.cancel(id);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, 100);
}

TEST(EventQueue, CancelledHeadDoesNotBlockNextTime) {
  EventQueue q;
  const EventId id = q.schedule_cancellable(10, [] {});
  q.schedule(20, [] {});
  q.cancel(id);
  EXPECT_EQ(q.next_time(), 20);
}

TEST(EventQueue, CancelUnknownIdIsNoop) {
  EventQueue q;
  q.schedule(5, [] {});
  q.cancel(9999);
  EXPECT_FALSE(q.empty());
  (void)q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.schedule_cancellable(1, [&] { ++fired; });
  q.pop().fn();
  q.cancel(id);  // already fired
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, AllCancelledMeansEmpty) {
  EventQueue q;
  const EventId a = q.schedule_cancellable(1, [] {});
  const EventId b = q.schedule_cancellable(2, [] {});
  q.cancel(a);
  q.cancel(b);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, InterleavedScheduleAndPop) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(10, [&] {
    order.push_back(1);
    q.schedule(15, [&] { order.push_back(2); });
  });
  q.schedule(20, [&] { order.push_back(3); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, LargeVolumeStaysOrdered) {
  EventQueue q;
  TimeNs last = -1;
  for (int i = 0; i < 10000; ++i) {
    q.schedule((i * 7919) % 1000, [] {});
  }
  while (!q.empty()) {
    auto ev = q.pop();
    EXPECT_GE(ev.when, last);
    last = ev.when;
  }
}

// Regression for the std::priority_queue-era pop(): it const_cast the
// container's top() and moved out of it (UB). The replacement heap must
// survive a dense interleaving of cancellable and non-cancellable events —
// including cancellations that leave dead entries at the heap top — with
// clean ASan/UBSan runs (the sanitize preset executes this test).
TEST(EventQueue, InterleavedCancellablePopsCleanly) {
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 200; ++i) {
    const TimeNs when = (i * 37) % 50;
    if (i % 2 == 0) {
      ids.push_back(q.schedule_cancellable(when, [&fired, i] {
        fired.push_back(i);
      }));
    } else {
      q.schedule(when, [&fired, i] { fired.push_back(i); });
    }
  }
  // Cancel every other cancellable event, including ones at the heap top.
  for (std::size_t k = 0; k < ids.size(); k += 2) q.cancel(ids[k]);

  TimeNs last = -1;
  while (!q.empty()) {
    auto ev = q.pop();
    EXPECT_GE(ev.when, last);
    last = ev.when;
    ev.fn();
  }
  // 100 non-cancellable + 50 surviving cancellable events fire.
  EXPECT_EQ(fired.size(), 150u);
  for (const int i : fired) {
    if (i % 2 == 0) {
      EXPECT_EQ((i / 2) % 2, 1) << "cancelled event " << i << " fired";
    }
  }
}

// size() must report only live events — watchdog diagnostics were
// overreporting the backlog by counting lazily-cancelled dead entries.
// raw_size() keeps the old occupied-slots meaning.
TEST(EventQueue, SizeExcludesCancelledRawSizeIncludes) {
  EventQueue q;
  const EventId a = q.schedule_cancellable(10, [] {});
  q.schedule_cancellable(20, [] {});
  q.schedule(30, [] {});
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.raw_size(), 3u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 2u);      // live events only
  EXPECT_EQ(q.raw_size(), 3u);  // the dead record still occupies a slot
  // Popping past the dead entry reconciles both counts.
  q.pop().fn();
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.raw_size(), 1u);
}

TEST(EventQueue, RunOneRespectsDeadline) {
  EventQueue q;
  int fired = 0;
  TimeNs clock = 0;
  q.schedule(10, [&] { ++fired; });
  q.schedule(30, [&] { fired += 10; });
  EXPECT_TRUE(q.run_one(20, clock));
  EXPECT_EQ(clock, 10);
  EXPECT_EQ(fired, 1);
  // The 30ns event is past the deadline: untouched, clock unchanged.
  EXPECT_FALSE(q.run_one(20, clock));
  EXPECT_EQ(clock, 10);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.run_one(30, clock));
  EXPECT_EQ(clock, 30);
  EXPECT_EQ(fired, 11);
}

TEST(EventQueue, RunOneSkipsCancelledHead) {
  EventQueue q;
  int fired = 0;
  TimeNs clock = 0;
  const EventId id = q.schedule_cancellable(5, [&] { fired = -1; });
  q.schedule(10, [&] { fired = 1; });
  q.cancel(id);
  EXPECT_TRUE(q.run_one(kTimeInf, clock));
  EXPECT_EQ(clock, 10);
  EXPECT_EQ(fired, 1);
}

// Callables that are too large or not trivially copyable fall back to the
// boxed (heap-allocated) path; they must fire and be released both when
// invoked and when destroyed unfired (no leaks under ASan).
TEST(EventQueue, BoxedCallablesFireAndRelease) {
  std::vector<int> sink;
  {
    EventQueue q;
    std::vector<int> payload{1, 2, 3};  // not trivially copyable
    q.schedule(1, [payload, &sink] { sink = payload; });
    q.schedule(2, [payload, &sink] { sink.push_back(99); });
    q.pop().fn();
    // The second boxed event is dropped unfired: its dtor must free the box.
  }
  EXPECT_EQ(sink, (std::vector<int>{1, 2, 3}));
}

// Steady-state schedule/pop cycles recycle pooled slots instead of growing:
// raw_size() returns to zero and ordering stays exact across many refills.
TEST(EventQueue, PoolRecyclingKeepsOrderingExact) {
  EventQueue q;
  TimeNs now = 0;
  std::vector<TimeNs> fired;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 16; ++i) {
      q.schedule(now + 1 + (i * 13) % 7, [&fired] { fired.push_back(0); });
    }
    while (!q.empty()) {
      auto ev = q.pop();
      EXPECT_GE(ev.when, now);
      now = ev.when;
      ev.fn();
    }
    EXPECT_EQ(q.raw_size(), 0u);
  }
  EXPECT_EQ(fired.size(), 50u * 16u);
}

// --- cancel() audit pins (double-cancel / stale-id) ----------------------

// Cancelling the same id repeatedly must count the kill exactly once:
// the dead_ counter is guarded by the pending-set erase, so size() (n_ -
// dead_) cannot underflow no matter how many times an id is replayed.
TEST(EventQueue, DoubleCancelCountsOnce) {
  EventQueue q;
  const EventId a = q.schedule_cancellable(10, [] {});
  q.schedule_cancellable(20, [] {});
  q.schedule(30, [] {});
  q.cancel(a);
  q.cancel(a);
  q.cancel(a);
  EXPECT_EQ(q.size(), 2u);      // would be 0 if each cancel() decremented
  EXPECT_EQ(q.raw_size(), 3u);
  int fired = 0;
  while (!q.empty()) {
    q.pop().fn();
    ++fired;
  }
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.raw_size(), 0u);
}

// A stale EventId whose pool slot has been recycled to a NEW event must
// not kill the new event: ids are the globally unique schedule sequence,
// never the slot index.
TEST(EventQueue, StaleIdAfterSlotRecycleIsInert) {
  EventQueue q;
  int first = 0;
  const EventId old_id = q.schedule_cancellable(1, [&] { ++first; });
  q.pop().fn();  // fires and frees the slot
  EXPECT_EQ(first, 1);
  EXPECT_EQ(q.raw_size(), 0u);

  // The next schedule reuses the freed slot (LIFO free list) — the stale
  // id must not reach it.
  int second = 0;
  q.schedule_cancellable(2, [&] { ++second; });
  q.cancel(old_id);  // stale: already fired
  EXPECT_EQ(q.size(), 1u);
  q.pop().fn();
  EXPECT_EQ(second, 1);
}

// Same recycle scenario through the lazy-deletion path: the old event is
// cancelled (its corpse still occupies a slot), drains away, and a new
// event takes over the slot. Replaying the old id must stay a no-op.
TEST(EventQueue, StaleIdAfterLazyDrainAndRecycleIsInert) {
  EventQueue q;
  const EventId old_id = q.schedule_cancellable(1, [] { FAIL(); });
  q.schedule(2, [] {});
  q.cancel(old_id);
  q.pop().fn();  // drains past the corpse, freeing its slot
  EXPECT_EQ(q.raw_size(), 0u);

  int fired = 0;
  q.schedule_cancellable(3, [&] { ++fired; });
  q.cancel(old_id);  // replay of an already-counted cancel
  q.cancel(old_id);
  EXPECT_EQ(q.size(), 1u);  // size() must not have underflowed
  q.pop().fn();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.size(), 0u);
}

// --- timing-wheel front-end ordering pins --------------------------------
//
// The wheel covers a ~67 ms near horizon (16384 buckets x 4096 ns); events
// beyond it wait in the overflow heap and migrate inward as the cursor
// advances. These constants exercise every boundary without depending on
// the exact bucket math.

TEST(EventQueue, FarHorizonEventsMigrateInOrder) {
  EventQueue q;
  std::vector<int> order;
  const TimeNs far = from_ms(500);  // deep in heap territory
  q.schedule(far + 30, [&] { order.push_back(5); });
  q.schedule(3, [&] { order.push_back(0); });
  q.schedule(far + 10, [&] { order.push_back(3); });
  q.schedule(from_ms(40), [&] { order.push_back(1); });  // in-wheel
  q.schedule(far + 20, [&] { order.push_back(4); });
  q.schedule(from_ms(90), [&] { order.push_back(2); });  // past horizon
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(EventQueue, SameInstantFifoAcrossHeapMigration) {
  EventQueue q;
  std::vector<int> order;
  const TimeNs t = from_ms(300);  // beyond the wheel horizon at schedule time
  for (int i = 0; i < 32; ++i) {
    q.schedule(t, [&order, i] { order.push_back(i); });
  }
  q.schedule(1, [&] { order.push_back(-1); });
  while (!q.empty()) q.pop().fn();
  ASSERT_EQ(order.size(), 33u);
  EXPECT_EQ(order[0], -1);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i + 1)], i);
  }
}

// An empty wheel rebases straight to the heap's top bucket instead of
// scanning through every intermediate empty bucket.
TEST(EventQueue, EmptyWheelRebasesToHeapTop) {
  EventQueue q;
  std::vector<TimeNs> when;
  for (int i = 9; i >= 0; --i) {
    q.schedule(from_sec(10) * (i + 1), [&when, i] {
      when.push_back(from_sec(10) * (i + 1));
    });
  }
  TimeNs last = 0;
  while (!q.empty()) {
    auto ev = q.pop();
    EXPECT_GT(ev.when, last);
    last = ev.when;
    ev.fn();
  }
  EXPECT_EQ(when.size(), 10u);
}

// Handlers scheduling at the *current* instant (zero-delay chains, e.g. a
// link handing off to a delay line) must run after every event already
// queued for that instant — FIFO extends to insertions made mid-drain.
TEST(EventQueue, MidDrainSameInstantInsertKeepsFifo) {
  EventQueue q;
  std::vector<int> order;
  TimeNs clock = 0;
  q.schedule(100, [&] {
    order.push_back(0);
    q.schedule(100, [&] { order.push_back(2); });
  });
  q.schedule(100, [&] { order.push_back(1); });
  while (q.run_one(kTimeInf, clock)) {
  }
  EXPECT_EQ(clock, 100);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// --- Fixed-delay lanes ----------------------------------------------------

TEST(EventQueue, LaneIsSharedPerDelay) {
  EventQueue q;
  const LaneId a = q.lane(100);
  const LaneId b = q.lane(250);
  EXPECT_NE(a, b);
  EXPECT_EQ(q.lane(100), a);
  EXPECT_EQ(q.lane(250), b);
}

// Lane and wheel events merge on (when, schedule order): a lane event and
// a wheel event due at the same instant fire in the order they were
// scheduled, and the cold pop()/next_time() path sees lane heads too.
TEST(EventQueue, LaneAndWheelMergeInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  const LaneId fast = q.lane(10);
  const LaneId slow = q.lane(30);
  q.schedule(10, [&] { order.push_back(0); });
  q.schedule_lane(fast, 0, [&] { order.push_back(1); });
  q.schedule_lane(slow, 0, [&] { order.push_back(4); });
  q.schedule(10, [&] { order.push_back(2); });
  q.schedule_lane(fast, 5, [&] { order.push_back(3); });
  EXPECT_EQ(q.size(), 5u);
  EXPECT_EQ(q.raw_size(), 5u);
  EXPECT_EQ(q.next_time(), 10);
  std::vector<TimeNs> whens;
  while (!q.empty()) {
    auto ev = q.pop();
    whens.push_back(ev.when);
    ev.fn();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(whens, (std::vector<TimeNs>{10, 10, 10, 15, 30}));
  EXPECT_EQ(q.size(), 0u);
}

// A lane event whose own pushes outgrow its ring (splicing in segments)
// must still see its captures intact and its pushes in FIFO order: lane
// entries never move (an ASan build turns a violation into a
// use-after-free report).
TEST(EventQueue, LaneGrowthWhileFiringKeepsCaptures) {
  EventQueue q;
  const LaneId lane = q.lane(7);
  std::vector<std::uint64_t> seen;
  TimeNs clock = 0;
  struct Payload {
    EventQueue* q;
    LaneId lane;
    std::vector<std::uint64_t>* seen;
    TimeNs* clock;
    std::uint64_t tag;
    void operator()() const {
      for (std::uint64_t i = 0; i < 500; ++i) {
        q->schedule_lane(lane, *clock, [s = seen, i] { s->push_back(i); });
      }
      seen->push_back(tag);  // reads this payload after the ring grew
    }
  };
  q.schedule_lane(lane, 0, Payload{&q, lane, &seen, &clock, 0xC0FFEE});
  while (q.run_one(kTimeInf, clock)) {
  }
  ASSERT_EQ(seen.size(), 501u);
  EXPECT_EQ(seen[0], 0xC0FFEEu);
  for (std::uint64_t i = 0; i < 500; ++i) EXPECT_EQ(seen[i + 1], i);
  EXPECT_EQ(clock, 14);
}

// Boxed (non-trivially-copyable) lane callables fire and are released,
// both when run and when the queue is destroyed with them unfired.
TEST(EventQueue, BoxedLaneCallablesFireAndRelease) {
  std::vector<int> sink;
  {
    EventQueue q;
    const LaneId lane = q.lane(3);
    std::vector<int> payload{4, 5, 6};
    q.schedule_lane(lane, 0, [payload, &sink] { sink = payload; });
    q.schedule_lane(lane, 1, [payload, &sink] { sink.push_back(99); });
    TimeNs clock = 0;
    EXPECT_TRUE(q.run_one(3, clock));
    EXPECT_EQ(clock, 3);
    EXPECT_FALSE(q.run_one(3, clock));  // the second is due at 4
  }
  EXPECT_EQ(sink, (std::vector<int>{4, 5, 6}));
}

// --- Private lanes ----------------------------------------------------------

TEST(EventQueue, LaneNeverReturnsAPrivateLane) {
  EventQueue q;
  const LaneId p0 = q.private_lane();
  const LaneId p1 = q.private_lane();
  EXPECT_NE(p0, p1);
  for (const TimeNs delay : {TimeNs{0}, TimeNs{1}, TimeNs{4096}}) {
    const LaneId shared = q.lane(delay);
    EXPECT_NE(shared, p0);
    EXPECT_NE(shared, p1);
    EXPECT_EQ(q.lane(delay), shared);
  }
  // Pushing onto a private lane does not make it look like any delay's.
  q.push_lane(p0, 0, [] {});
  q.push_lane(p1, 4096, [] {});
  EXPECT_NE(q.lane(0), p0);
  EXPECT_NE(q.lane(4096), p1);
}

// Pushes onto a private lane take absolute times that may repeat or jump;
// a lane that drains and is pushed again re-enters the lane heap keyed by
// its new head, so it fires in (when, schedule order) against the others.
TEST(EventQueue, PrivateLaneRefillsReenterTheLaneHeapAtTheirNewHead) {
  EventQueue q;
  std::vector<int> order;
  std::vector<TimeNs> at;
  TimeNs clock = 0;
  const LaneId own = q.private_lane();
  const LaneId shared = q.lane(300);
  auto note = [&](int tag) {
    return [&, tag] {
      order.push_back(tag);
      at.push_back(clock);
    };
  };
  q.push_lane(own, 100, note(0));
  q.push_lane(own, 100, note(1));  // same instant, later in schedule order
  q.schedule_lane(shared, 0, note(3));  // 300
  q.schedule(200, note(2));
  ASSERT_TRUE(q.run_one(kTimeInf, clock));
  ASSERT_TRUE(q.run_one(kTimeInf, clock));
  EXPECT_EQ(clock, 100);  // the private lane is empty again
  q.push_lane(own, 700, note(5));
  q.schedule_lane(shared, clock, note(4));  // 400
  q.push_lane(own, 700, note(6));
  q.schedule(700, note(7));
  while (q.run_one(kTimeInf, clock)) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(at, (std::vector<TimeNs>{100, 100, 200, 300, 400, 700, 700, 700}));
  EXPECT_EQ(q.size(), 0u);
}

// Segments stay with their lane: once a lane has drained, refilling it to
// the same depth writes into the same entries instead of new segments.
// The depth, 256, is a whole number of segments, so both fills cover the
// same entries whichever segment the refill starts in.
TEST(EventQueue, LaneSegmentsAreReusedAfterADrain) {
  EventQueue q;
  const LaneId own = q.private_lane();
  std::vector<const void*> first;
  std::vector<const void*> second;
  struct Probe {
    std::vector<const void*>* seen;
    void operator()() const { seen->push_back(this); }
  };
  TimeNs clock = 0;
  for (TimeNs t = 1; t <= 256; ++t) q.push_lane(own, t, Probe{&first});
  while (q.run_one(kTimeInf, clock)) {
  }
  for (TimeNs t = 0; t < 256; ++t) {
    q.push_lane(own, clock + t, Probe{&second});
  }
  while (q.run_one(kTimeInf, clock)) {
  }
  ASSERT_EQ(first.size(), 256u);
  ASSERT_EQ(second.size(), 256u);
  std::sort(first.begin(), first.end());
  std::sort(second.begin(), second.end());
  EXPECT_EQ(std::unique(first.begin(), first.end()), first.end());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace bbrnash
