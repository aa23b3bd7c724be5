// RingDeque against std::deque, its footprint, and its allocations.
//
// This binary links the counting allocator (bbrnash_alloccount) for the
// allocation cases; the other cases do not read it.

#include "util/ring_deque.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <utility>

#include "util/alloc_counter.hpp"
#include "util/rng.hpp"

namespace bbrnash {
namespace {

/// A wide element: 48 bytes, wider than a packet or a sender record (32),
/// and not a power of two; 16 entries a segment.
struct Wide {
  std::uint64_t words[6];
};

/// A lane-entry-sized element: 80 bytes, like the event queue's lane
/// entries; 16 entries a segment.
struct Entry {
  std::uint64_t words[10];
};

template <typename T>
T make(std::uint64_t v) {
  if constexpr (std::is_same_v<T, Wide>) {
    return Wide{{v, ~v, v * 3, v + 7, v ^ 0x55, v << 1}};
  } else if constexpr (std::is_same_v<T, Entry>) {
    Entry e{};
    for (std::uint64_t i = 0; i < 10; ++i) e.words[i] = v * (i + 1) + i;
    return e;
  } else {
    return static_cast<T>(v);
  }
}

template <typename T>
std::uint64_t key(const T& t) {
  if constexpr (std::is_same_v<T, Wide>) {
    EXPECT_EQ(t.words[1], ~t.words[0]);
    EXPECT_EQ(t.words[5], t.words[0] << 1);
    return t.words[0];
  } else if constexpr (std::is_same_v<T, Entry>) {
    EXPECT_EQ(t.words[9], t.words[0] * 10 + 9);
    return t.words[0];
  } else {
    return static_cast<std::uint64_t>(t);
  }
}

/// Pushes `v`: by copy through push_back() for even values, in place
/// through append() for odd ones (an Entry field by field, as the event
/// queue constructs a callable into its new lane entry).
template <typename T>
void push(RingDeque<T>& ring, std::uint64_t v) {
  if (v % 2 == 0) {
    ring.push_back(make<T>(v));
  } else if constexpr (std::is_same_v<T, Entry>) {
    Entry& e = ring.append();
    for (std::uint64_t i = 0; i < 10; ++i) e.words[i] = v * (i + 1) + i;
  } else {
    ring.append() = make<T>(v);
  }
}

/// Elements a span of `n` can touch: `n` rounded up to a segment, plus
/// the one more segment a front inside its segment can spill into.
template <typename T>
std::size_t footprint_bound(std::size_t n) {
  constexpr std::size_t s = RingDeque<T>::kSegment;
  return (n + s - 1) / s * s + s;
}

/// Random pushes, pops at both ends, reads and writes through every
/// accessor, and occasional clear() and reserve(), checked step by step
/// against std::deque. The push probability swings between phases so the
/// span climbs to `peak`, falls back, and climbs again, wrapping the ring
/// many times and growing its table several times over.
template <typename T>
void run_differential(std::uint64_t seed, std::size_t peak, int steps) {
  SCOPED_TRACE(seed);
  Rng rng{seed};
  RingDeque<T> ring;
  std::deque<std::uint64_t> ref;
  std::size_t high = 0;
  bool reserved = false;  // reserve() may hold more than the span needed
  std::uint64_t next = 1;
  bool growing = true;
  for (int step = 0; step < steps; ++step) {
    if (ref.size() >= peak) growing = false;
    if (ref.size() <= peak / 16) growing = true;
    const double push_p = growing ? 0.7 : 0.3;
    const double u = rng.next_double();
    if (u < push_p) {
      const std::uint64_t v = key(make<T>(next++));
      push(ring, v);
      ref.push_back(v);
      high = std::max(high, ref.size());
    } else if (!ref.empty() && u < push_p + (1 - push_p) * 0.7) {
      ring.pop_front();
      ref.pop_front();
    } else if (!ref.empty()) {
      ring.pop_back();
      ref.pop_back();
    }
    if (!ref.empty()) {
      const auto i = static_cast<std::size_t>(rng.next_below(ref.size()));
      ASSERT_EQ(key(ring[i]), ref[i]);
      if (rng.next_below(4) == 0) {
        const std::uint64_t v = key(make<T>(next++));
        ring[i] = make<T>(v);
        ref[i] = v;
      }
      ASSERT_EQ(key(ring.front()), ref.front());
      ASSERT_EQ(key(ring.back()), ref.back());
      const RingDeque<T>& view = ring;
      ASSERT_EQ(key(view[i]), ref[i]);
    }
    if (rng.next_below(20000) == 0) {
      ring.clear();
      ref.clear();
    }
    if (rng.next_below(5000) == 0) {
      ring.reserve(static_cast<std::size_t>(rng.next_below(2 * peak)));
      reserved = true;
    }
    ASSERT_EQ(ring.size(), ref.size());
    ASSERT_EQ(ring.empty(), ref.empty());
    if (!reserved) {
      ASSERT_LE(ring.capacity(), footprint_bound<T>(high));
    }
  }
  for (std::size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(key(ring[i]), ref[i]);
  // A move carries the contents over and leaves the source empty.
  RingDeque<T> moved{std::move(ring)};
  ASSERT_EQ(moved.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(key(moved[i]), ref[i]);
  EXPECT_TRUE(ring.empty());  // NOLINT(bugprone-use-after-move)
  ring = std::move(moved);
  ASSERT_EQ(ring.size(), ref.size());
  if (!ref.empty()) {
    EXPECT_EQ(key(ring.back()), ref.back());
  }
}

TEST(RingDeque, MatchesStdDequeOnRecordSizedElements) {
  static_assert(RingDeque<Wide>::kSegment == 16);
  for (const std::uint64_t seed : {1, 2, 3}) {
    run_differential<Wide>(seed, 3000, 200000);
  }
}

TEST(RingDeque, MatchesStdDequeOnLaneEntriesWrittenInPlace) {
  static_assert(sizeof(Entry) == 80);
  static_assert(RingDeque<Entry>::kSegment == 16);
  for (const std::uint64_t seed : {8, 9}) {
    run_differential<Entry>(seed, 3000, 200000);
  }
}

TEST(RingDeque, MatchesStdDequeOnWords) {
  static_assert(RingDeque<std::uint64_t>::kSegment == 32);
  for (const std::uint64_t seed : {4, 5}) {
    run_differential<std::uint64_t>(seed, 20000, 400000);
  }
}

TEST(RingDeque, MatchesStdDequeOnFlags) {
  static_assert(RingDeque<std::uint8_t>::kSegment == 256);
  run_differential<std::uint8_t>(6, 60000, 1000000);
}

// Without reserve(), the ring never holds more segments than its widest
// span needed, however often it wraps, grows and shrinks.
TEST(RingDeque, CapacityFollowsHighWater) {
  Rng rng{7};
  RingDeque<Wide> ring;
  EXPECT_EQ(ring.capacity(), 0u);
  std::size_t peak = 40;
  std::size_t high = 0;  // the largest size() reached
  for (int phase = 0; phase < 12; ++phase) {
    // Climb to this phase's peak, then drain to a few elements, with the
    // front moving all the while.
    while (ring.size() < peak) {
      ring.push_back(make<Wide>(1));
      high = std::max(high, ring.size());
      if (rng.next_below(3) == 0) ring.pop_front();
      ASSERT_LE(ring.capacity(), footprint_bound<Wide>(high));
    }
    while (ring.size() > 3) {
      ring.pop_front();
      if (rng.next_below(3) == 0) ring.push_back(make<Wide>(2));
      ASSERT_LE(ring.capacity(), footprint_bound<Wide>(high));
    }
    peak = phase % 2 == 0 ? peak * 3 : peak / 2;
  }
  EXPECT_GE(ring.capacity(), high);
}

// After reserve(n), any mix of operations that keeps the size at or below
// n allocates nothing, wherever the front sits inside its segment.
TEST(RingDeque, ReservedRingAllocatesNothing) {
  for (const std::size_t n : {1u, 15u, 16u, 17u, 100u, 1000u}) {
    SCOPED_TRACE(n);
    RingDeque<Wide> ring;
    ring.reserve(n);
    EXPECT_GE(ring.capacity(), n);
    Rng rng{n};
    const std::uint64_t news0 = allocs::news();
    for (int step = 0; step < 100000; ++step) {
      const bool push = ring.empty() ||
                        (ring.size() < n && rng.next_below(2) == 0);
      if (push) {
        ring.push_back(make<Wide>(static_cast<std::uint64_t>(step)));
      } else if (rng.next_below(4) == 0) {
        ring.pop_back();
      } else {
        ring.pop_front();
      }
      if (rng.next_below(50000) == 0) ring.clear();
    }
    EXPECT_EQ(allocs::news() - news0, 0u);
  }
}

// A ring that has reached a span and cycled through it once then
// allocates nothing for any mix at or below that span; clear() keeps
// every segment too. The lap of FIFO traffic moves the front across a
// whole segment, so the span may reach into one more segment, and the
// table doubles if that segment does not fit.
TEST(RingDeque, CyclingWithinHighWaterAllocatesNothing) {
  for (const std::size_t high : {5u, 16u, 40u, 333u, 4096u}) {
    SCOPED_TRACE(high);
    RingDeque<Wide> ring;
    for (std::size_t i = 0; i < high; ++i) ring.push_back(make<Wide>(i));
    const std::uint64_t lap0 = allocs::news();
    for (std::size_t i = 0; i < RingDeque<Wide>::kSegment; ++i) {
      ring.pop_front();
      ring.push_back(make<Wide>(i));
    }
    EXPECT_LE(allocs::news() - lap0, 2u) << "one lap";

    Rng rng{high};
    const std::uint64_t news0 = allocs::news();
    for (int step = 0; step < 100000; ++step) {
      const bool push = ring.empty() ||
                        (ring.size() < high && rng.next_below(2) == 0);
      if (push) {
        ring.push_back(make<Wide>(static_cast<std::uint64_t>(step)));
      } else if (rng.next_below(4) == 0) {
        ring.pop_back();
      } else {
        ring.pop_front();
      }
    }
    ring.clear();
    for (std::size_t i = 0; i < high; ++i) ring.push_back(make<Wide>(i));
    EXPECT_EQ(allocs::news() - news0, 0u);
    EXPECT_LE(ring.capacity(), footprint_bound<Wide>(high));
  }
}

}  // namespace
}  // namespace bbrnash
