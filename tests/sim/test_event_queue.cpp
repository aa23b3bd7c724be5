#include "sim/event_queue.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace bbrnash {
namespace {

/// Fires every queued event in (when, sequence) order; returns the times
/// they fired at.
std::vector<TimeNs> drain(EventQueue& q) {
  std::vector<TimeNs> whens;
  TimeNs clock = 0;
  while (q.run_one(kTimeInf, clock)) whens.push_back(clock);
  return whens;
}

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
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(42, [&order, i] { order.push_back(i); });
  }
  drain(q);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, MixedTimesAndTies) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(5, [&] { order.push_back(1); });
  q.schedule(5, [&] { order.push_back(2); });
  q.schedule(1, [&] { order.push_back(0); });
  q.schedule(9, [&] { order.push_back(3); });
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, PopReturnsScheduledTime) {
  EventQueue q;
  q.schedule(77, [] {});
  EXPECT_EQ(q.next_time(), 77);
  TimeNs clock = 0;
  EXPECT_TRUE(q.run_one(kTimeInf, clock));
  EXPECT_EQ(clock, 77);
}

TEST(EventQueue, InterleavedScheduleAndPop) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(10, [&] {
    order.push_back(1);
    q.schedule(15, [&] { order.push_back(2); });
  });
  q.schedule(20, [&] { order.push_back(3); });
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, LargeVolumeStaysOrdered) {
  EventQueue q;
  for (int i = 0; i < 10000; ++i) {
    q.schedule((i * 7919) % 1000, [] {});
  }
  const std::vector<TimeNs> whens = drain(q);
  EXPECT_EQ(whens.size(), 10000u);
  EXPECT_TRUE(std::is_sorted(whens.begin(), whens.end()));
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
    TimeNs clock = 0;
    EXPECT_TRUE(q.run_one(1, clock));
    // The second boxed event is dropped unfired: its dtor must free the box.
  }
  EXPECT_EQ(sink, (std::vector<int>{1, 2, 3}));
}

// A callable that throws out of run_one() still gives its entry back, from
// the wheel and from a lane alike: the exception propagates, size() drops
// by one, the boxed callable is destroyed (its captured token's use count
// drops), and the next event fires in (when, sequence) order.
TEST(EventQueue, ThrowingEventReleasesItsEntry) {
  EventQueue q;
  std::vector<int> order;
  // Capturing a shared_ptr makes every callable below boxed.
  const auto token = std::make_shared<int>(0);
  const LaneId lane = q.lane(10);
  q.schedule(5, [token, &order] {
    order.push_back(1);
    throw std::runtime_error{"wheel"};
  });
  q.schedule(10, [token, &order] { order.push_back(2); });
  q.schedule_lane(lane, 0, [token, &order] {
    order.push_back(3);
    throw std::runtime_error{"lane"};
  });
  q.schedule(10, [token, &order] { order.push_back(4); });
  q.schedule_lane(lane, 10, [token, &order] { order.push_back(5); });
  ASSERT_EQ(q.size(), 5u);
  ASSERT_EQ(token.use_count(), 6);

  TimeNs clock = 0;
  EXPECT_THROW(q.run_one(kTimeInf, clock), std::runtime_error);
  EXPECT_EQ(clock, 5);
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(token.use_count(), 5);
  EXPECT_TRUE(q.run_one(kTimeInf, clock));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_THROW(q.run_one(kTimeInf, clock), std::runtime_error);
  EXPECT_EQ(clock, 10);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(token.use_count(), 3);
  EXPECT_EQ(drain(q), (std::vector<TimeNs>{10, 20}));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(token.use_count(), 1);
}

// A lane push whose callable throws while it is copied in leaves the lane
// as it was: size() is unchanged and the queued events fire in order.
// The throws land on an empty lane, on a segment boundary (the 17th entry
// starts a lane's second segment) and inside a segment.
TEST(EventQueue, ThrowingLanePushLeavesTheLaneAsItWas) {
  struct Tagged {
    std::vector<int>* order;
    int tag;
    bool explode;
    Tagged(std::vector<int>* o, int t, bool e) : order(o), tag(t), explode(e) {}
    Tagged(const Tagged& other)
        : order(other.order), tag(other.tag), explode(other.explode) {
      if (explode) throw std::runtime_error{"copy"};
    }
    Tagged& operator=(const Tagged&) = delete;
    ~Tagged() = default;
    void operator()() const { order->push_back(tag); }
  };
  EventQueue q;
  std::vector<int> order;
  const LaneId shared = q.lane(100);
  const LaneId own = q.private_lane();
  EXPECT_THROW(q.push_lane(own, 0, Tagged{&order, -1, true}),
               std::runtime_error);
  EXPECT_THROW(q.schedule_lane(shared, 0, Tagged{&order, -1, true}),
               std::runtime_error);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());
  std::vector<int> expected;
  for (int i = 0; i < 40; ++i) {
    if (i == 16 || i == 23) {
      const std::size_t before = q.size();
      EXPECT_THROW(q.push_lane(own, i, Tagged{&order, -1, true}),
                   std::runtime_error);
      EXPECT_THROW(q.schedule_lane(shared, i, Tagged{&order, -1, true}),
                   std::runtime_error);
      EXPECT_EQ(q.size(), before);
    }
    q.push_lane(own, i, Tagged{&order, i, false});
    q.schedule_lane(shared, i, Tagged{&order, 1000 + i, false});
  }
  EXPECT_EQ(q.size(), 80u);
  for (int i = 0; i < 40; ++i) expected.push_back(i);
  for (int i = 0; i < 40; ++i) expected.push_back(1000 + i);
  const std::vector<TimeNs> whens = drain(q);
  EXPECT_EQ(order, expected);
  EXPECT_TRUE(std::is_sorted(whens.begin(), whens.end()));
  EXPECT_EQ(q.size(), 0u);
}

// Steady-state schedule/fire cycles recycle pooled slots instead of
// growing: size() returns to zero and ordering stays exact across many
// refills.
TEST(EventQueue, PoolRecyclingKeepsOrderingExact) {
  EventQueue q;
  TimeNs now = 0;
  std::vector<TimeNs> fired;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 16; ++i) {
      const TimeNs t = now + 1 + (i * 13) % 7;
      q.schedule(t, [&fired, t] { fired.push_back(t); });
    }
    while (q.run_one(kTimeInf, now)) {
    }
    EXPECT_EQ(now, fired.back());
    EXPECT_EQ(q.size(), 0u);
  }
  EXPECT_EQ(fired.size(), 50u * 16u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
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
  drain(q);
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
  drain(q);
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
  const std::vector<TimeNs> fired_at = drain(q);
  EXPECT_EQ(fired_at, when);
  EXPECT_EQ(when.size(), 10u);
  EXPECT_TRUE(std::is_sorted(when.begin(), when.end()));
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
// scheduled, and next_time() sees lane heads too.
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
  EXPECT_EQ(q.next_time(), 10);
  const std::vector<TimeNs> whens = drain(q);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(whens, (std::vector<TimeNs>{10, 10, 10, 15, 30}));
  EXPECT_EQ(q.size(), 0u);
}

// A lane event whose own pushes outgrow its ring (adding segments and
// growing the ring's table) must still see its captures intact and its
// pushes in FIFO order: lane entries never move (an ASan build turns a
// violation into a use-after-free report).
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

// Lanes created while a lane event fires, enough to reallocate the queue's
// lane table several times over, leave every queued head in place: the
// heads queued before fire in order with their captures intact (an ASan
// build turns a dangling head into a use-after-free report), and so does
// the firing event's own payload after the table moved.
TEST(EventQueue, LanesCreatedWhileFiringKeepQueuedHeads) {
  EventQueue q;
  std::vector<int> order;
  TimeNs clock = 0;
  const LaneId first = q.lane(5);
  for (int i = 0; i < 4; ++i) {
    q.push_lane(q.private_lane(), 10 + i, [&order, i] { order.push_back(i); });
    q.schedule_lane(q.lane(20 + i), 0,
                    [&order, i] { order.push_back(10 + i); });
  }
  q.schedule_lane(first, 0, [&q, &order] {
    for (int k = 0; k < 200; ++k) {
      const LaneId fresh = k % 2 == 0 ? q.private_lane() : q.lane(1000 + k);
      q.push_lane(fresh, 100 + k, [&order, k] { order.push_back(100 + k); });
    }
    order.push_back(-1);  // reads this payload after the lanes moved
  });
  while (q.run_one(kTimeInf, clock)) {
  }
  std::vector<int> expected{-1, 0, 1, 2, 3, 10, 11, 12, 13};
  for (int k = 0; k < 200; ++k) expected.push_back(100 + k);
  EXPECT_EQ(order, expected);
  EXPECT_EQ(clock, 299);
  EXPECT_EQ(q.size(), 0u);
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

// Reserving keeps the ring's order whether the lane is empty or holds
// live entries with its head part-way through a segment.
TEST(EventQueue, ReservingALaneKeepsItsOrder) {
  EventQueue q;
  const LaneId fresh = q.private_lane();
  const LaneId busy = q.private_lane();
  q.reserve_lane(fresh, 40);
  std::vector<int> order;
  TimeNs clock = 0;
  for (int i = 0; i < 20; ++i) {
    q.push_lane(busy, i, [&order, i] { order.push_back(i); });
  }
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.run_one(kTimeInf, clock));
  q.reserve_lane(busy, 100);
  for (int i = 20; i < 100; ++i) {
    q.push_lane(busy, i, [&order, i] { order.push_back(i); });
  }
  for (int i = 0; i < 40; ++i) {
    q.push_lane(fresh, 1000 + i, [&order, i] { order.push_back(1000 + i); });
  }
  while (q.run_one(kTimeInf, clock)) {
  }
  std::vector<int> expected;
  for (int i = 0; i < 100; ++i) expected.push_back(i);
  for (int i = 0; i < 40; ++i) expected.push_back(1000 + i);
  EXPECT_EQ(order, expected);
  EXPECT_EQ(q.size(), 0u);
}

}  // namespace
}  // namespace bbrnash
