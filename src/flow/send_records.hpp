// The sender's per-packet bookkeeping, packed to what it carries.
//
// A deep queue keeps a sender's sequence span several windows wide, so
// these records are most of a deep-buffer trial's memory. Each field is
// as narrow as the values it can hold, and each narrowing is guarded: a
// value that would not fit throws std::length_error instead of wrapping,
// like the event queue's sequence guard.
//
//   * TxRecord (32 bytes): three timestamps, the delivered count at send
//     time in packets, and the send order with its state and Karn bits.
//   * Sequence numbers in the send-order window and the retransmit queue
//     are stored as 31-bit residues (4 bytes) and decoded against the
//     smallest tracked sequence number. The sequence span the sender keeps
//     is bounded by memory far below 2^31.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "net/packet.hpp"
#include "util/ring_deque.hpp"
#include "util/units.hpp"

namespace bbrnash {

enum class TxState : std::uint8_t { kInflight, kDelivered, kLost };

/// One transmitted sequence number's state, tcp_rate.c style.
struct TxRecord {
  TimeNs send_time = kTimeNone;
  TimeNs delivered_time_at_send = 0;  ///< delivery-rate snapshot
  TimeNs first_tx_at_send = 0;        ///< start of this packet's send phase
  /// Delivery-rate snapshot in packets: delivered bytes only ever grow by
  /// one MSS, so this count times the MSS is the byte count exactly.
  std::uint32_t delivered_pkts_at_send = 0;
  /// send order << 3 | retransmitted << 2 | state. The state and the
  /// sticky retransmitted flag (the Karn check) share the order's word.
  std::uint32_t order_bits = 0;

  static constexpr int kFlagBits = 3;
  static constexpr std::uint32_t kStateMask = 3;
  static constexpr std::uint32_t kRetransmitted = 4;
  /// The largest send order the record holds: about 5.4e8 transmissions.
  static constexpr std::uint64_t kMaxOrder =
      std::numeric_limits<std::uint32_t>::max() >> kFlagBits;
  static constexpr std::uint64_t kMaxDeliveredPkts =
      std::numeric_limits<std::uint32_t>::max();

  [[nodiscard]] std::uint64_t send_order() const noexcept {
    return order_bits >> kFlagBits;
  }
  [[nodiscard]] TxState state() const noexcept {
    return static_cast<TxState>(order_bits & kStateMask);
  }
  [[nodiscard]] bool retransmitted() const noexcept {
    return (order_bits & kRetransmitted) != 0;
  }
  void set_state(TxState s) noexcept {
    order_bits = (order_bits & ~kStateMask) | static_cast<std::uint32_t>(s);
  }
  /// A (re)transmission: a new send order, in flight, and retransmitted
  /// from the first retransmission on. Throws std::length_error past
  /// kMaxOrder.
  void sent(std::uint64_t order, bool is_retransmit) {
    if (order > kMaxOrder) {
      throw std::length_error{"sender send-order space exhausted"};
    }
    order_bits = (static_cast<std::uint32_t>(order) << kFlagBits) |
                 (order_bits & kRetransmitted) |
                 (is_retransmit ? kRetransmitted : 0) |
                 static_cast<std::uint32_t>(TxState::kInflight);
  }
  /// Records the delivered count at send time. Throws std::length_error
  /// past kMaxDeliveredPkts.
  void snapshot_delivered(std::uint64_t delivered_pkts) {
    if (delivered_pkts > kMaxDeliveredPkts) {
      throw std::length_error{"sender delivered count exhausted"};
    }
    delivered_pkts_at_send = static_cast<std::uint32_t>(delivered_pkts);
  }
};
static_assert(sizeof(TxRecord) == 32, "a sender record is four words");

/// Sequence numbers as 31-bit residues. A residue decodes to the one
/// sequence number in [base, base + 2^31) it matches, so it is exact for
/// every sequence number the sender still tracks. A residue of a number
/// below `base` (a retransmit entry whose record was retired) decodes past
/// every tracked one, to no record, as long as the span from it to the
/// next new sequence number stays within 2^31; check_span keeps it there.
struct SeqResidue {
  static constexpr std::uint32_t kMask = (std::uint32_t{1} << 31) - 1;

  [[nodiscard]] static constexpr std::uint32_t encode(SeqNo seq) noexcept {
    return static_cast<std::uint32_t>(seq) & kMask;
  }
  [[nodiscard]] static constexpr SeqNo decode(std::uint32_t residue,
                                              SeqNo base) noexcept {
    return base + ((residue - static_cast<std::uint32_t>(base)) & kMask);
  }
  /// Guards a new sequence number: `span` is how many the sender tracks
  /// before it (next new minus smallest tracked). Throws
  /// std::length_error once one more would leave the residues' range.
  static void check_span(std::size_t span) {
    if (span >= kMask) {
      throw std::length_error{"sender sequence span exceeds 2^31"};
    }
  }
};

/// The set of in-flight packets keyed by send order (what std::map was
/// used for). Orders are assigned consecutively at transmit time, so the
/// ordered map degenerates into a ring indexed by (order - base): insert
/// is a push at the back, erase tombstones the slot, and the minimum live
/// order is maintained by advancing the base past tombstones — O(1)
/// amortized, allocation-free at steady state where the map paid a node
/// allocation per transmitted packet. Slots hold sequence residues, so
/// front_seq() decodes against the sender's smallest tracked sequence
/// number (every in-flight packet still has its record).
class OrderWindow {
 public:
  /// Pre: orders arrive consecutively (order == base + size()).
  void insert(std::uint64_t order, SeqNo seq) {
    assert(order == base_ + slots_.size() && "send orders are consecutive");
    (void)order;
    slots_.push_back(SeqResidue::encode(seq));
    ++live_;
  }
  /// Erasing an absent order is a no-op, like map::erase by key.
  void erase(std::uint64_t order) {
    if (order < base_) return;
    const auto idx = static_cast<std::size_t>(order - base_);
    if (idx >= slots_.size() || slots_[idx] == kDead) return;
    slots_[idx] = kDead;
    --live_;
    // Keep the front slot live (or the ring empty) so front_*() are O(1).
    while (!slots_.empty() && slots_.front() == kDead) {
      slots_.pop_front();
      ++base_;
    }
  }
  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  /// Smallest live send order / its sequence number, decoded against
  /// `base_seq`, the sender's smallest tracked one. Pre: !empty().
  [[nodiscard]] std::uint64_t front_order() const {
    assert(live_ > 0);
    return base_;
  }
  [[nodiscard]] SeqNo front_seq(SeqNo base_seq) const {
    assert(live_ > 0);
    return SeqResidue::decode(slots_.front(), base_seq);
  }
  void reserve(std::size_t n) { slots_.reserve(n); }

 private:
  /// The tombstone: the one bit a residue never sets.
  static constexpr std::uint32_t kDead = ~SeqResidue::kMask;

  RingDeque<std::uint32_t> slots_;
  std::uint64_t base_ = 1;  ///< send orders start at 1
  std::size_t live_ = 0;
};

}  // namespace bbrnash
