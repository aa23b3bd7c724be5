// RingDeque: a deque of trivially-copyable elements stored in fixed-size
// segments, for the simulator's per-packet hot paths.
//
// std::deque allocates a node per block (and libstdc++'s 512-byte blocks
// mean roughly one allocation per handful of packets), and std::map /
// std::set allocate a node per element. On the packet hot path those node
// allocations dominate the profile. RingDeque keeps elements in segments
// of kSegment entries (at most 256 bytes for elements of up to 16 bytes,
// such as the sender's 4-byte sequence residues; 16 entries for larger
// ones: 512 bytes for the sender's 32-byte records and for 32-byte
// packets, 1,280 bytes for the event queue's 80-byte lane entries) and
// reaches them through a power-of-two table of segment pointers: the
// element at position p sits at table[(p / kSegment) mod slots][p mod
// kSegment], where positions count up from the front as elements are
// pushed.
//
// The ring keeps a run of consecutively numbered segments, each in its
// table slot: the ones the front has left, then the ones holding
// elements, then empty ones past the back. Popping only moves the front
// or back position; segments stay where they are. When a push needs a
// segment past the run, it takes the oldest one the front has left
// (moving one pointer in the table) and allocates only when there is none.
// So an element never moves once pushed (an event firing from its lane
// entry may push onto its own lane), and unless reserve() asked for more,
// the ring keeps exactly as many segments as its widest span needed:
// capacity() is at most the largest size() reached, rounded up to a
// segment, plus one segment (the front can sit anywhere inside its
// segment). Only a full table grows, and it doubles by moving segment
// pointers.
//
// Only a push branches on a segment boundary (once per kSegment pushes);
// pop_front and pop_back just move a position, and front() and operator[]
// look the segment up in the table. back(), push_back() and append() use
// a cached pointer to the back's segment; append() hands the new back to
// the caller to write in place (the event queue constructs a callable
// into it).
//
// Restricted to trivially-copyable T on purpose: an element is written by
// plain assignment or in place, destruction is a no-op, and pop_front is
// just a head bump — exactly the packet/record/sample/lane-entry types the
// simulator stores.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

namespace bbrnash {

template <typename T>
class RingDeque {
  static_assert(std::is_trivially_copyable_v<T>,
                "RingDeque is specialized for trivially-copyable elements");

 public:
  /// Entries per segment: the most that fit in 256 bytes, rounded down to
  /// a power of two, and at least 16.
  static constexpr std::size_t kSegment =
      std::max<std::size_t>(16, std::bit_floor(256 / sizeof(T)));

  RingDeque() = default;
  RingDeque(RingDeque&& other) noexcept { swap(other); }
  RingDeque& operator=(RingDeque&& other) noexcept {
    RingDeque taken{std::move(other)};
    swap(taken);
    return *this;
  }
  RingDeque(const RingDeque&) = delete;
  RingDeque& operator=(const RingDeque&) = delete;
  ~RingDeque() = default;

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Elements the allocated segments hold, empty ones included.
  [[nodiscard]] std::size_t capacity() const noexcept {
    return std::size_t{count_} * kSegment;
  }

  /// Element i positions from the front. Pre: i < size().
  [[nodiscard]] T& operator[](std::size_t i) { return at(*this, i); }
  [[nodiscard]] const T& operator[](std::size_t i) const { return at(*this, i); }

  [[nodiscard]] T& front() { return at(*this, 0); }
  [[nodiscard]] const T& front() const { return at(*this, 0); }
  [[nodiscard]] T& back() {
    assert(size_ > 0);
    return tail_seg_[(head_ + size_ - 1) % kSegment];
  }
  [[nodiscard]] const T& back() const {
    assert(size_ > 0);
    return tail_seg_[(head_ + size_ - 1) % kSegment];
  }

  /// Appends an element for the caller to write in place; returns it.
  T& append() {
    const std::size_t pos = head_ + size_;
    if (pos % kSegment == 0) [[unlikely]] enter_segment(pos / kSegment);
    ++size_;
    return tail_seg_[pos % kSegment];
  }

  void push_back(const T& v) { append() = v; }

  void pop_front() {
    assert(size_ > 0);
    ++head_;
    --size_;
  }

  void pop_back() {
    assert(size_ > 0);
    --size_;
    // The back may have stepped into the previous segment. (Once empty,
    // this reads the slot before the front, which no access uses.)
    tail_seg_ = slot(head_ + size_ - 1).get();
  }

  /// Drops all elements; keeps every segment (no allocation on refill).
  void clear() noexcept {
    head_ -= head_ % kSegment;
    size_ = 0;
  }

  /// Pre-sizes the ring so that it holds `n` elements, wherever its front
  /// sits inside a segment, without allocating.
  void reserve(std::size_t n) {
    if (n == 0) return;
    const std::size_t want = (n + 2 * kSegment - 2) / kSegment;
    if (want <= count_) return;
    if (want > slots_) grow_table(std::bit_ceil(want));
    for (; count_ < want; ++count_) {
      table_[(low_ + count_) & (slots_ - 1)] = std::make_unique<T[]>(kSegment);
    }
  }

 private:
  using Segment = std::unique_ptr<T[]>;

  static constexpr std::size_t kMinSlots = 4;

  // Always through the table: a branch on whether `i` falls in the front's
  // segment mispredicts on the sender's indices, which straddle segment
  // boundaries at random, and costs more than the table load.
  template <typename Self>
  static auto& at(Self& self, std::size_t i) {
    assert(i < self.size_);
    const std::size_t pos = self.head_ + i;
    return self.slot(pos)[pos % kSegment];
  }

  [[nodiscard]] Segment& slot(std::size_t pos) const {
    return table_[(pos / kSegment) & (slots_ - 1)];
  }

  // Points the back at segment number `seg`, which the next element
  // starts: a segment of the run if the back left one there, else the
  // oldest segment the front has left, else a fresh one (growing the
  // table first when the run fills it). Out of line so that push_back
  // inlines to its fast path.
  [[gnu::noinline]] void enter_segment(std::size_t seg) {
    if (seg >= low_ + count_) {
      if (low_ < head_ / kSegment) {
        // The front has left segment low_: it becomes segment `seg`.
        // Both numbers share a slot when the run fills the table.
        table_[seg & (slots_ - 1)].swap(table_[low_ & (slots_ - 1)]);
        ++low_;
      } else {
        if (count_ == slots_) grow_table(slots_ == 0 ? kMinSlots : 2 * slots_);
        table_[seg & (slots_ - 1)] = std::make_unique<T[]>(kSegment);
        ++count_;
      }
    }
    tail_seg_ = table_[seg & (slots_ - 1)].get();
  }

  // Rehomes the run into a table of `slots` (a power of two, at least the
  // segment count).
  void grow_table(std::size_t slots) {
    auto next = std::make_unique<Segment[]>(slots);
    for (std::size_t seg = low_; seg < low_ + count_; ++seg) {
      next[seg & (slots - 1)] = std::move(table_[seg & (slots_ - 1)]);
    }
    table_ = std::move(next);
    slots_ = static_cast<std::uint32_t>(slots);
  }

  void swap(RingDeque& other) noexcept {
    std::swap(table_, other.table_);
    std::swap(tail_seg_, other.tail_seg_);
    std::swap(head_, other.head_);
    std::swap(size_, other.size_);
    std::swap(low_, other.low_);
    std::swap(count_, other.count_);
    std::swap(slots_, other.slots_);
  }

  std::unique_ptr<Segment[]> table_;
  T* tail_seg_ = nullptr;  ///< the back's segment; push_back writes there
  std::size_t head_ = 0;   ///< the front's position
  std::size_t size_ = 0;
  std::size_t low_ = 0;      ///< number of the run's first segment
  std::uint32_t count_ = 0;  ///< segments in the run
  std::uint32_t slots_ = 0;  ///< table size: 0 or a power of two
};

}  // namespace bbrnash
