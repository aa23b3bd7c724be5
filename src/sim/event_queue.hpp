// Discrete-event core: a time-ordered queue of pooled event records.
//
// Ordering guarantee: events fire in non-decreasing time; events scheduled
// for the same instant fire in the order they were scheduled (FIFO via a
// monotone sequence number). This makes simulations fully deterministic.
//
// Representation: a timing wheel with a far-horizon heap overflow.
//
//   * The dense near-horizon band (pacing ticks, serialization times, ACK
//     deliveries, propagation delays — everything within ~67 ms) lives in
//     a 16384-bucket timing wheel with 4096 ns granularity. A bucket is an
//     intrusive singly-linked chain threaded through a node array that
//     parallels the payload pool, so scheduling is O(1): compute the
//     bucket, push the chain head, set an occupancy bit.
//   * Events at or beyond the wheel horizon (RTO timers, rtprop probes,
//     measurement boundaries) overflow into a small 4-ary min-heap of
//     packed 16-byte keys — the same cache-aligned sift machinery that
//     used to hold *all* events, now holding only the sparse far band.
//     As the wheel cursor advances, heap events that fall inside the
//     horizon migrate into their buckets, so every event is fired from
//     the wheel path. Invariant: heap events always live at a bucket the
//     cursor has not reached.
//   * The bucket the cursor is parked on is kept *loaded*: its chain is
//     pulled into a reusable scratch vector, sorted by the exact total
//     order (when, then schedule sequence), and drained front to back.
//     Events scheduled at or before the cursor's bucket (same-instant
//     chains, or a fresh event behind an eagerly advanced cursor) are
//     inserted into the scratch's pending region at their sorted
//     position, which preserves the exact heap ordering semantics:
//     among pending events the fire order is always (when, sequence).
//   * FIFO lanes carry the per-packet hops. A lane is a RingDeque whose
//     pushes carry non-decreasing fire times: push_lane() appends (when,
//     sequence, callable), constructing the callable in place in the new
//     entry's slot, and requires `when` to be no earlier than the lane's
//     previous push. Sequences grow with every push too, so each ring is
//     already sorted by (when, sequence) and needs no wheel, chain, or sort
//     at all.
//     Two kinds of lane exist. lane(delay) returns the fixed-delay lane
//     shared by every user with that delay (propagation on a DelayLine,
//     serialization on the bottleneck): schedule_lane() pushes at the
//     current clock plus the delay, and the clock never decreases.
//     private_lane() returns a lane nobody else can reach, for a hop whose
//     delay varies but whose fire times never go backwards (a flow's
//     jittered access path). A small binary heap over the non-empty lanes
//     (keyed by each lane's head, whose address the key carries) merges
//     them, and the run loop fires whichever head is earlier by (when,
//     sequence): the wheel's or the lane heap's. Sequences come from the
//     one counter schedule() uses, so the fire order is exactly that of a
//     single queue holding every event. The wheel cursor is loaded only up
//     to the lane head's bucket, so it never runs ahead of the clock by
//     more than a bucket while lanes are busy.
//
// Dispatch runs the callable in place: payload slots live in fixed-size
// chunks that never move once allocated, so run_one() fires the event
// directly from pooled storage and recycles the slot after the callable
// returns (never before — the callable's own captures live in that slot).
//
// Each payload slot embeds its callable in a fixed 48-byte inline buffer
// (with its two thunks, one 64-byte slot), so the packet hot path
// (arrivals, departures, ACK deliveries, pacing and RTO timers — all of
// which capture at most a packet plus a couple of pointers) schedules and
// fires events with ZERO heap allocations in steady state: slots are
// recycled in place and every auxiliary array (scratch, chains, free
// list, heap keys) stops growing once the simulation reaches its
// high-water event count. Callables that are larger than the inline
// buffer or not trivially copyable are boxed on the heap (cold paths
// only: test lambdas, callables routed through std::function).
//
// Lane events fire in place from their ring the same way, and their entry
// is popped only after the callable returns. A RingDeque's entries never
// move (a running callable's captures stay put however many events it
// pushes, onto its own lane or any other), and once a lane reaches its
// high-water mark its segments are reused forever. A lane that drains is
// cleared, so its next push starts a segment the lane already holds: the
// link's lane (one packet in service) and the access lanes keep reusing
// one hot segment.
//
// Events cannot be cancelled: a timer that is usually re-armed (the RTO)
// re-arms lazily instead, checking at fire time whether it is still due.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/ring_deque.hpp"
#include "util/units.hpp"

namespace bbrnash {

/// Handle of a FIFO lane (see EventQueue::lane and private_lane).
using LaneId = std::uint32_t;

/// Inline storage per event payload, in pool slots and lane entries
/// alike. Sized for the largest hot-path callable, a forward-path
/// DelayLine delivery (the line's pointer plus a Packet-with-sojourn,
/// 8 + 40 bytes); an access-path arrival (the entry hop's pointer plus a
/// Packet) is smaller. So a pool Slot fills one 64-byte cache line and a
/// LaneEntry is 80 bytes.
inline constexpr std::size_t kEventInlineBytes = 48;

class EventQueue {
 private:
  /// What the wheel and heap order on: 16 bytes. meta packs
  /// (sequence << kSeqShift) | slot — the sequence occupies the high bits,
  /// so comparing meta words compares sequences (slots only differ when
  /// sequences differ, and sequences are unique).
  struct Key {
    TimeNs when;
    std::uint64_t meta;
  };
  static_assert(std::is_trivially_copyable_v<Key>);
  static_assert(sizeof(Key) == 16);

  /// meta layout: bits 0..23 = payload-slot index (16M concurrent
  /// events; a lane entry's lane id instead, 16M lanes), bits 24..63 =
  /// schedule sequence (1e12 events per simulation).
  static constexpr std::uint64_t kSlotBits = 24;
  static constexpr std::uint64_t kSeqShift = kSlotBits;
  static constexpr std::uint64_t kSlotMask = (1u << kSlotBits) - 1;

  /// One pooled payload: the callable plus its dispatch thunks. Written at
  /// schedule(), fired in place at dispatch, recycled through free_.
  /// Trivially copyable by construction (inline callables are restricted
  /// to trivially-copyable types), so an inline callable needs no
  /// destructor call: only a boxed one is released, by `cleanup`.
  struct Slot {
    void (*invoke)(std::byte*);
    void (*cleanup)(std::byte*);  ///< frees a boxed callable; null = inline
    alignas(std::max_align_t) std::byte storage[kEventInlineBytes];
  };
  static_assert(std::is_trivially_copyable_v<Slot>);
  static_assert(sizeof(Slot) == 64, "a pool slot is one cache line");

  /// One lane ring entry: the ordering key plus the payload, in the pool
  /// slot's layout so fill() constructs the callable straight into it.
  struct LaneEntry {
    TimeNs when;
    std::uint64_t meta;  ///< (sequence << kSeqShift) | the lane's id
    Slot slot;
  };
  static_assert(std::is_trivially_copyable_v<LaneEntry>);
  static_assert(sizeof(LaneEntry) == 80);

  /// The delay a private lane carries. lane() only takes delays >= 0, so it
  /// never hands such a lane out.
  static constexpr TimeNs kPrivateLane = -1;

  struct Lane {
    TimeNs delay;  ///< schedule_lane()'s offset; kPrivateLane if private
    RingDeque<LaneEntry> ring{};  ///< sorted by construction
  };

  /// Lane-heap element: a non-empty lane keyed by its head entry's
  /// (when, meta), with the lane's id in meta's slot bits. It carries the
  /// head's address, so firing the head needs no ring lookup.
  struct LaneKey {
    TimeNs when;
    std::uint64_t meta;
    LaneEntry* head;
  };

  /// run_one() fires callables in place from pooled storage; the slot must
  /// only return to the free list after the callable (whose captures live
  /// in that storage) finishes. The guard also runs on an exception
  /// unwind: a throwing event (e.g. an injected chaos fault) leaves the
  /// run loop after its key was already consumed, where no other owner
  /// would free its boxed callable or recycle its slot.
  struct DispatchGuard {
    EventQueue& q;
    Slot& s;
    std::uint32_t idx;
    ~DispatchGuard() {
      if (s.cleanup != nullptr) s.cleanup(s.storage);
      q.free_.push_back(idx);
    }
  };

  /// The lane counterpart: the fired entry leaves its ring only after the
  /// callable returns.
  struct LaneDispatchGuard {
    EventQueue& q;
    Slot& s;
    LaneId id;
    ~LaneDispatchGuard() {
      if (s.cleanup != nullptr) s.cleanup(s.storage);
      q.pop_lane_front(id);
    }
  };

 public:
  EventQueue() {
    heads_.assign(kWheelSize, kNil);
    bitmap_.assign(kWheelSize / 64, 0);
  }
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  ~EventQueue() {
    for (std::size_t i = drain_; i < scratch_.size(); ++i) {
      release_boxed(scratch_[i]);
    }
    for (std::uint32_t head : heads_) {
      for (std::uint32_t node = head; node != kNil; node = nodes_[node].next) {
        Slot& s = slot_ref(nodes_[node].slot);
        if (s.cleanup != nullptr) s.cleanup(s.storage);
      }
    }
    for (std::size_t i = 0; i < heap_n_; ++i) release_boxed(root_[i]);
    for (Lane& l : lanes_) {
      for (std::size_t i = 0; i < l.ring.size(); ++i) {
        Slot& s = l.ring[i].slot;
        if (s.cleanup != nullptr) s.cleanup(s.storage);
      }
    }
    ::operator delete(base_, std::align_val_t{kLineBytes});
  }

  /// Schedules an event at absolute time `when`.
  template <typename F>
  void schedule(TimeNs when, F&& fn) {
    insert_key(when, make_meta(), fill_slot(std::forward<F>(fn)));
  }

  /// The lane shared by every user whose events fire exactly `delay`
  /// (>= 0) after they are scheduled. Lanes live as long as the queue;
  /// lookups are a short linear scan, so callers keep the id rather than
  /// look it up per event.
  [[nodiscard]] LaneId lane(TimeNs delay) {
    assert(delay >= 0);
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      if (lanes_[i].delay == delay) return static_cast<LaneId>(i);
    }
    return add_lane(delay);
  }

  /// A new lane that lane() never returns, for one owner whose fire times
  /// never go backwards; the owner pushes with push_lane().
  [[nodiscard]] LaneId private_lane() { return add_lane(kPrivateLane); }

  /// Schedules an event at `now` + the shared lane's delay.
  /// Pre: `now` is not less than the `now` of any earlier push onto this
  /// lane (true of a simulation clock).
  template <typename F>
  void schedule_lane(LaneId id, TimeNs now, F&& fn) {
    assert(lanes_[id].delay != kPrivateLane && "private lanes take push_lane");
    push_lane(id, now + lanes_[id].delay, std::forward<F>(fn));
  }

  /// Appends an event firing at `when` to lane `id`. Pre:
  /// `when` is not earlier than the lane's previous push, which keeps the
  /// ring sorted, nor than the current event's time. A callable whose
  /// construction throws leaves the lane as it was.
  template <typename F>
  void push_lane(LaneId id, TimeNs when, F&& fn) {
    RingDeque<LaneEntry>& ring = lanes_[id].ring;
    assert((ring.empty() || when >= ring.back().when) &&
           "lane pushes must not go back in time");
    const std::uint64_t meta = make_meta() | id;
    LaneEntry& e = ring.append();
    try {
      fill(e.slot, std::forward<F>(fn));
    } catch (...) {
      ring.pop_back();
      throw;
    }
    e.when = when;
    e.meta = meta;
    if (ring.size() == 1) push_lane_key(LaneKey{when, meta, &e});
    ++lane_n_;
  }

  /// Pre-sizes lane `id`'s ring to hold `n` entries without allocating.
  /// The lane heap, which holds at most one key per lane, makes room for
  /// twice the lanes there are, so lanes created later (a link's service
  /// lane appears at its first service) fit too.
  void reserve_lane(LaneId id, std::size_t n) {
    lane_heap_.reserve(2 * lanes_.size());
    lanes_[id].ring.reserve(n);
  }

  [[nodiscard]] bool empty() { return locate_next() == Next::kNone; }

  /// Number of queued events, lane events included.
  [[nodiscard]] std::size_t size() const { return n_ + lane_n_; }

  /// Pre-sizes the event pool to `n` slots so neither the payload chunks
  /// nor the bookkeeping arrays reallocate while the simulation grows
  /// toward its high-water event count.
  void reserve(std::size_t n) {
    while (chunks_.size() * kChunkSlots < n) add_chunk();
    free_.reserve(n);
    scratch_.reserve(std::min<std::size_t>(n, 1024));
  }

  /// Time of the next event; kTimeInf when empty.
  [[nodiscard]] TimeNs next_time() {
    switch (locate_next()) {
      case Next::kWheel:
        return scratch_[drain_].when;
      case Next::kLane:
        return lane_heap_[0].when;
      case Next::kNone:
        break;
    }
    return kTimeInf;
  }

  /// Combined deadline check + dispatch — the simulator run loop's one
  /// call per event. If the next event is due at or before
  /// `deadline`, advances `clock` to its timestamp, fires it, and returns
  /// true; otherwise leaves the queue untouched and returns false. The
  /// callable runs in place from its pooled chunk or lane ring; its entry
  /// is recycled only after it returns, so it may freely schedule new
  /// events.
  bool run_one(TimeNs deadline, TimeNs& clock) {
    const Next next = locate_next();
    if (next == Next::kNone) return false;
    if (next == Next::kLane) {
      const LaneKey& top = lane_heap_[0];
      if (top.when > deadline) return false;
      clock = top.when;
      LaneDispatchGuard guard{*this, top.head->slot, lane_of(top)};
      guard.s.invoke(guard.s.storage);
      return true;
    }
    const Key top = scratch_[drain_];
    if (top.when > deadline) return false;
    ++drain_;
    --n_;
    clock = top.when;
    Slot& s = slot_ref(slot_of(top));
    DispatchGuard guard{*this, s, slot_of(top)};
    s.invoke(s.storage);
    return true;
  }

 private:
  template <typename Fn>
  static void invoke_inline(std::byte* storage) {
    // bbrnash-lint: allow(reinterpret-cast) -- pooled-storage payload:
    // reads back the Fn placement-constructed into this slot by fill();
    // launder makes the round-trip through std::byte storage well-defined.
    (*std::launder(reinterpret_cast<Fn*>(storage)))();
  }
  template <typename Fn>
  static void invoke_boxed(std::byte* storage) {
    Fn* boxed;
    std::memcpy(&boxed, storage, sizeof boxed);
    (*boxed)();
  }
  template <typename Fn>
  static void cleanup_boxed(std::byte* storage) {
    Fn* boxed;
    std::memcpy(&boxed, storage, sizeof boxed);
    delete boxed;
  }

  [[nodiscard]] static constexpr std::uint32_t slot_of(const Key& k) {
    return static_cast<std::uint32_t>(k.meta & kSlotMask);
  }

  [[nodiscard]] std::uint64_t make_meta() {
    // A sequence past 40 bits would make same-timestamp FIFO comparisons
    // wrap silently; no realistic run gets near 1e12 events, but fail
    // loudly rather than go nondeterministic.
    if (next_seq_ >> (64 - kSeqShift) != 0) [[unlikely]] {
      sequence_exhausted();
    }
    return next_seq_++ << kSeqShift;
  }

  /// Out of line so make_meta() stays small enough to inline everywhere.
  [[noreturn, gnu::cold, gnu::noinline]] static void sequence_exhausted() {
    throw std::length_error{"event sequence space exhausted"};
  }

  // --- Payload pool (chunked; slots never move once allocated) ----------

  static constexpr std::size_t kChunkShift = 12;  ///< 4096 slots per chunk
  static constexpr std::size_t kChunkSlots = std::size_t{1} << kChunkShift;
  static constexpr std::size_t kChunkMask = kChunkSlots - 1;

  [[nodiscard]] Slot& slot_ref(std::uint32_t idx) {
    return chunks_[idx >> kChunkShift][idx & kChunkMask];
  }

  void add_chunk() {
    if (chunks_.size() * kChunkSlots > kSlotMask) {
      throw std::length_error{"event pool exhausted (16M live events)"};
    }
    // Left uninitialized: every slot and node is written before it is
    // read, so a page stays untouched (and out of the resident set) until
    // the pool's high-water mark reaches it.
    chunks_.push_back(std::make_unique_for_overwrite<Slot[]>(kChunkSlots));
    auto nodes = std::make_unique_for_overwrite<Node[]>(chunks_.size() *
                                                        kChunkSlots);
    if (used_slots_ != 0) {
      std::memcpy(nodes.get(), nodes_.get(), used_slots_ * sizeof(Node));
    }
    nodes_ = std::move(nodes);
  }

  /// Takes a slot from the free list (or grows the pool) and constructs
  /// the callable into it. Returns the slot index.
  template <typename F>
  std::uint32_t fill_slot(F&& fn) {
    std::uint32_t idx;
    if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
    } else {
      if (used_slots_ == chunks_.size() * kChunkSlots) add_chunk();
      idx = static_cast<std::uint32_t>(used_slots_++);
    }
    fill(slot_ref(idx), std::forward<F>(fn));
    return idx;
  }

  /// Constructs the callable into `s` (a pool slot or a lane entry's):
  /// inline when it fits, else boxed on the heap.
  template <typename F>
  static void fill(Slot& s, F&& fn) {
    using Fn = std::decay_t<F>;
    constexpr bool fits_inline =
        sizeof(Fn) <= kEventInlineBytes &&
        alignof(Fn) <= alignof(std::max_align_t) &&
        std::is_trivially_copyable_v<Fn>;
    if constexpr (fits_inline) {
      ::new (static_cast<void*>(s.storage)) Fn(std::forward<F>(fn));
      s.invoke = &invoke_inline<Fn>;
      s.cleanup = nullptr;
    } else {
      Fn* boxed = new Fn(std::forward<F>(fn));
      std::memcpy(s.storage, &boxed, sizeof boxed);
      s.invoke = &invoke_boxed<Fn>;
      s.cleanup = &cleanup_boxed<Fn>;
    }
  }

  /// Destructor-only: boxed cleanup without free-list bookkeeping.
  void release_boxed(const Key& k) {
    Slot& s = slot_ref(slot_of(k));
    if (s.cleanup != nullptr) s.cleanup(s.storage);
  }

  /// Strict total order: (when, schedule sequence). Sequences are unique,
  /// so ties never happen and FIFO-at-same-timestamp is exact.
  [[nodiscard]] static bool before(const Key& a, const Key& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.meta < b.meta;
  }

  // --- Timing wheel (near horizon) ---------------------------------------

  /// 16384 buckets x 4096 ns = a 67 ms horizon: wide enough that pacing
  /// ticks, serialization times, and propagation delays (tens of ms) all
  /// land directly in the wheel; only RTO-scale timers overflow to the
  /// heap. Bucket chains are threaded through nodes_ (parallel to the
  /// payload pool), so scheduling allocates nothing. The granularity is
  /// tuned so a loaded bucket holds a handful of events (sorting it is a
  /// few compares) while cursor advances stay rare relative to events.
  static constexpr std::uint64_t kBucketShift = 12;
  static constexpr std::uint64_t kWheelBits = 14;
  static constexpr std::uint64_t kWheelSize = std::uint64_t{1} << kWheelBits;
  static constexpr std::uint64_t kWheelMask = kWheelSize - 1;
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::uint64_t kBucketUnknown = ~std::uint64_t{0};
  static constexpr std::uint64_t kBucketNone = kBucketUnknown - 1;

  struct Node {
    TimeNs when;
    std::uint64_t meta;
    std::uint32_t slot;  ///< == slot_of(meta); kept to avoid re-unpacking
    std::uint32_t next;
  };

  [[nodiscard]] static constexpr std::uint64_t bucket_of(TimeNs when) {
    return static_cast<std::uint64_t>(when) >> kBucketShift;
  }

  /// Routes a fresh (or heap-migrated) key to scratch, wheel, or heap.
  /// Pre for the wheel arm: wheel_pos_ < bucket_of(when) < wheel_pos_ +
  /// kWheelSize, which makes physical slot <-> absolute bucket a
  /// bijection (two in-horizon buckets congruent mod kWheelSize are
  /// equal), so a chain only ever holds one absolute bucket's events.
  void insert_key(TimeNs when, std::uint64_t meta, std::uint32_t slot) {
    const Key key{when, meta | slot};
    ++n_;
    const std::uint64_t b = bucket_of(when);
    if (b <= wheel_pos_) {
      // The cursor's own bucket (same-instant chained events), or behind
      // an eagerly advanced cursor: splice into the scratch's pending
      // region at the exact (when, sequence) position. Everything already
      // drained compares strictly less (fired whens <= this when, and
      // this sequence is the largest yet issued), so the pending region
      // stays totally sorted and the global fire order is unchanged from
      // a single ordered heap.
      const auto pos = std::upper_bound(
          scratch_.begin() + static_cast<std::ptrdiff_t>(drain_),
          scratch_.end(), key,
          [](const Key& a, const Key& c) { return before(a, c); });
      scratch_.insert(pos, key);
    } else if (b - wheel_pos_ < kWheelSize) {
      chain_push(key);
    } else {
      push_heap_key(key);
    }
  }

  /// Pushes an in-horizon key onto its bucket chain. Pre: see insert_key.
  void chain_push(const Key& key) {
    const auto s =
        static_cast<std::uint32_t>(bucket_of(key.when) & kWheelMask);
    const std::uint32_t idx = slot_of(key);
    nodes_[idx] = Node{key.when, key.meta, idx, heads_[s]};
    heads_[s] = idx;
    bitmap_[s >> 6] |= std::uint64_t{1} << (s & 63);
    ++wheel_count_;
    note_bucket(bucket_of(key.when));
  }

  /// Keeps the memoized next-bucket target exact as events arrive.
  void note_bucket(std::uint64_t b) {
    if (next_bucket_ != kBucketUnknown && b < next_bucket_) next_bucket_ = b;
  }

  /// Smallest absolute bucket > wheel_pos_ with a non-empty chain.
  /// Pre: wheel_count_ != 0. Scans the occupancy bitmap starting just
  /// past the cursor's slot; because every chained event's bucket lies in
  /// (wheel_pos_, wheel_pos_ + kWheelSize), the first set bit in cyclic
  /// slot order is the earliest bucket.
  [[nodiscard]] std::uint64_t next_occupied_bucket() const {
    const auto start =
        static_cast<std::uint32_t>((wheel_pos_ + 1) & kWheelMask);
    const auto words = static_cast<std::uint32_t>(kWheelSize / 64);
    std::uint32_t w = start >> 6;
    std::uint64_t word = bitmap_[w] & (~std::uint64_t{0} << (start & 63));
    for (;;) {
      if (word != 0) {
        const auto s = static_cast<std::uint32_t>(
            (w << 6) + static_cast<std::uint32_t>(__builtin_ctzll(word)));
        const auto dist =
            static_cast<std::uint32_t>((s - start) & kWheelMask);
        return wheel_pos_ + 1 + dist;
      }
      w = (w + 1) & (words - 1);
      word = bitmap_[w];
    }
  }

  /// Moves the cursor to the earliest non-empty bucket, pulls that
  /// bucket's chain (plus any heap events that the advance brought inside
  /// the horizon) into scratch_, and sorts it. Pre: scratch_ is drained.
  /// Returns false, leaving the cursor where it is, when no events remain
  /// in the wheel or heap or the earliest bucket lies past `max_bucket`.
  bool advance_cursor(std::uint64_t max_bucket) {
    std::uint64_t target = next_bucket_;
    if (target == kBucketUnknown) {
      if (wheel_count_ != 0) {
        target = next_occupied_bucket();
        if (heap_n_ != 0) {
          const std::uint64_t hb = bucket_of(root_[0].when);
          if (hb < target) target = hb;
        }
      } else if (heap_n_ != 0) {
        // Wheel empty: rebase the cursor straight to the heap top's bucket
        // (this is how the cursor crosses long event-free gaps in O(1)).
        target = bucket_of(root_[0].when);
      } else {
        target = kBucketNone;
      }
      next_bucket_ = target;
    }
    if (target == kBucketNone || target > max_bucket) return false;
    next_bucket_ = kBucketUnknown;
    scratch_.clear();
    drain_ = 0;
    wheel_pos_ = target;
    const auto s = static_cast<std::uint32_t>(target & kWheelMask);
    std::uint32_t node = heads_[s];
    heads_[s] = kNil;
    bitmap_[s >> 6] &= ~(std::uint64_t{1} << (s & 63));
    while (node != kNil) {
      scratch_.push_back(Key{nodes_[node].when, nodes_[node].meta});
      --wheel_count_;
      node = nodes_[node].next;
    }
    // Restore the heap invariant (all heap events beyond the horizon of
    // the *new* cursor): migrate anything the advance uncovered. The heap
    // pops in time order, so these go to their exact buckets.
    while (heap_n_ != 0 &&
           bucket_of(root_[0].when) < wheel_pos_ + kWheelSize) {
      Key k;
      pop_root(k);
      if (bucket_of(k.when) == wheel_pos_) {
        scratch_.push_back(k);
      } else {
        chain_push(k);
      }
    }
    std::sort(scratch_.begin(), scratch_.end(),
              [](const Key& a, const Key& b) { return before(a, b); });
    return true;
  }

  /// Where the next event queue-wide lives.
  enum class Next { kNone, kWheel, kLane };

  /// Finds the next event by (when, sequence): scratch_[drain_] for
  /// kWheel, lane_heap_[0] for kLane. With lanes pending, the wheel is
  /// loaded no further than the lane head's bucket: a later wheel bucket
  /// cannot hold an earlier event. A bucket advance_cursor() loads is never
  /// empty, so one load is enough.
  Next locate_next() {
    if (lane_heap_.empty()) {
      return drain_ < scratch_.size() || advance_cursor(~std::uint64_t{0})
                 ? Next::kWheel
                 : Next::kNone;
    }
    const LaneKey& lk = lane_heap_[0];
    const Key lane_head{lk.when, lk.meta};
    // Fast paths, no bucket loading: a loaded wheel key to compare
    // against, or a memoized wheel target past the lane head's bucket.
    if (drain_ < scratch_.size()) {
      return before(scratch_[drain_], lane_head) ? Next::kWheel : Next::kLane;
    }
    if (next_bucket_ != kBucketUnknown && next_bucket_ > bucket_of(lk.when)) {
      return Next::kLane;
    }
    if (advance_cursor(bucket_of(lk.when)) &&
        before(scratch_[drain_], lane_head)) {
      return Next::kWheel;
    }
    return Next::kLane;
  }

  // --- Far-horizon heap ---------------------------------------------------

  static constexpr std::size_t kArity = 4;
  static constexpr std::size_t kLineBytes = 64;
  /// Root offset inside the 64-byte-aligned allocation: with the root at
  /// element 3, every sibling group {4i+1 .. 4i+4} lands on physical
  /// indices {4k .. 4k+3} — exactly one cache line per group.
  static constexpr std::size_t kRootPad = kArity - 1;

  /// Grows (or first-allocates) the aligned key array to hold at least
  /// `min_cap` keys. Growth is amortized doubling; contents are preserved.
  void grow_keys(std::size_t min_cap) {
    std::size_t cap = key_cap_ == 0 ? 64 : key_cap_;
    while (cap < min_cap) cap *= 2;
    auto* fresh = static_cast<Key*>(::operator new(
        (cap + kRootPad) * sizeof(Key), std::align_val_t{kLineBytes}));
    if (heap_n_ != 0) std::memcpy(fresh + kRootPad, root_, heap_n_ * sizeof(Key));
    ::operator delete(base_, std::align_val_t{kLineBytes});
    base_ = fresh;
    root_ = fresh + kRootPad;
    key_cap_ = cap;
  }

  void push_heap_key(const Key& key) {
    if (heap_n_ == key_cap_) grow_keys(heap_n_ + 1);
    note_bucket(bucket_of(key.when));
    // Sift up with a hole: parents slide down until key's level is found.
    std::size_t i = heap_n_++;
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(key, root_[parent])) break;
      root_[i] = root_[parent];
      i = parent;
    }
    root_[i] = key;
  }

  /// Copies the root key into `out` and restores the heap invariant.
  void pop_root(Key& out) {
    out = root_[0];
    const Key last = root_[--heap_n_];
    if (heap_n_ == 0) return;
    // Sift down with a hole: the smallest child bubbles up until `last`
    // fits. Each sibling group is one aligned cache line.
    std::size_t i = 0;
    for (;;) {
      const std::size_t first_child = kArity * i + 1;
      if (first_child >= heap_n_) break;
      const std::size_t end_child =
          first_child + kArity < heap_n_ ? first_child + kArity : heap_n_;
      std::size_t best = first_child;
      for (std::size_t c = first_child + 1; c < end_child; ++c) {
        if (before(root_[c], root_[best])) best = c;
      }
      if (!before(root_[best], last)) break;
      root_[i] = root_[best];
      i = best;
    }
    root_[i] = last;
  }

  // --- Lanes --------------------------------------------------------------

  [[nodiscard]] static constexpr LaneId lane_of(const LaneKey& k) {
    return static_cast<LaneId>(k.meta & kSlotMask);
  }

  LaneId add_lane(TimeNs delay) {
    if (lanes_.size() > kSlotMask) {
      throw std::length_error{"event queue lanes exhausted (16M lanes)"};
    }
    lanes_.push_back(Lane{delay});
    return static_cast<LaneId>(lanes_.size() - 1);
  }

  [[nodiscard]] static bool lane_before(const LaneKey& a, const LaneKey& b) {
    return before(Key{a.when, a.meta}, Key{b.when, b.meta});
  }

  /// Heap-inserts a lane that just became non-empty.
  void push_lane_key(const LaneKey& key) {
    lane_heap_.push_back(key);
    std::size_t i = lane_heap_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!lane_before(key, lane_heap_[parent])) break;
      lane_heap_[i] = lane_heap_[parent];
      i = parent;
    }
    lane_heap_[i] = key;
  }

  /// Drops lane `id`'s head entry (its callable already fired) and re-keys
  /// the lane heap. Pre: `id` is the lane-heap top — no push can overtake
  /// it, since every push (onto any lane) is keyed at or after the clock
  /// with a fresh, larger sequence.
  void pop_lane_front(LaneId id) {
    RingDeque<LaneEntry>& ring = lanes_[id].ring;
    assert(!lane_heap_.empty() && lane_of(lane_heap_[0]) == id);
    --lane_n_;
    ring.pop_front();
    LaneKey key;
    if (!ring.empty()) {
      LaneEntry& h = ring.front();
      key = LaneKey{h.when, h.meta, &h};
      if (ring.size() > 1) {
        // The entry after the new head was written a whole delay ago and
        // is long out of cache; start pulling it in now, one fire ahead.
        const LaneEntry& after = ring[1];
        __builtin_prefetch(&after);
        __builtin_prefetch(&after.slot.storage[kEventInlineBytes - 1]);
      }
    } else {
      // Empty: the next push starts over at the front segment's first
      // entry, so a lane that keeps draining (the link's, one packet in
      // service) never walks.
      ring.clear();
      key = lane_heap_.back();
      lane_heap_.pop_back();
      if (lane_heap_.empty()) return;
    }
    // Sift the new key down from the root.
    const std::size_t n = lane_heap_.size();
    std::size_t i = 0;
    for (;;) {
      std::size_t best = 2 * i + 1;
      if (best >= n) break;
      if (best + 1 < n && lane_before(lane_heap_[best + 1], lane_heap_[best])) {
        ++best;
      }
      if (!lane_before(lane_heap_[best], key)) break;
      lane_heap_[i] = lane_heap_[best];
      i = best;
    }
    lane_heap_[i] = key;
  }

  // --- State --------------------------------------------------------------

  // Payload pool: fixed-size chunks (slots never move), LIFO free list.
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::size_t used_slots_ = 0;  ///< slots handed out at least once
  std::vector<std::uint32_t> free_;

  // Wheel: per-slot chain nodes, bucket heads, occupancy bitmap, cursor.
  std::unique_ptr<Node[]> nodes_;      ///< parallel to the payload pool
  std::vector<std::uint32_t> heads_;   ///< kWheelSize chain heads
  std::vector<std::uint64_t> bitmap_;  ///< kWheelSize occupancy bits
  std::uint64_t wheel_pos_ = 0;  ///< absolute bucket the cursor is parked on
  std::size_t wheel_count_ = 0;  ///< events currently threaded in chains
  /// advance_cursor's target, memoized while the cursor waits behind the
  /// lanes: the earliest bucket holding a chain or heap event, kBucketNone
  /// when both are empty, kBucketUnknown when it must be recomputed.
  std::uint64_t next_bucket_ = kBucketUnknown;

  // Loaded bucket: sorted, drained front to back.
  std::vector<Key> scratch_;
  std::size_t drain_ = 0;

  // Far-horizon heap.
  Key* base_ = nullptr;  ///< 64-byte-aligned allocation (kRootPad lead-in)
  Key* root_ = nullptr;  ///< heap element 0 (= base_ + kRootPad)
  std::size_t key_cap_ = 0;  ///< heap capacity in keys (excludes the pad)
  std::size_t heap_n_ = 0;   ///< heap size

  std::size_t n_ = 0;  ///< occupied slots: scratch pending + chains + heap
  std::uint64_t next_seq_ = 1;

  // Lanes: rings indexed by LaneId, a binary heap over the non-empty ones.
  std::vector<Lane> lanes_;
  std::vector<LaneKey> lane_heap_;
  std::size_t lane_n_ = 0;  ///< events queued across all lanes
};

}  // namespace bbrnash
