// Wire-level packet representation.
//
// The simulator is byte-accurate: `wire_bytes` (payload + header) is what
// occupies queue space and serialization time; the payload is the sender's
// MSS, which nothing downstream needs. Sender-side bookkeeping
// (delivery-rate snapshots, send ordering) lives in the sender, keyed by
// (flow, seq) — packets carry only what a real wire would.
#pragma once

#include <cstdint>
#include <limits>

#include "util/units.hpp"

namespace bbrnash {

using FlowId = std::uint32_t;
using SeqNo = std::uint64_t;

/// Default Ethernet-ish sizing: 1448 B of payload + 52 B TCP/IP header.
inline constexpr Bytes kDefaultMss = 1448;
inline constexpr Bytes kHeaderBytes = 52;
/// The largest wire size a Packet holds (its 32-bit `wire_bytes`).
inline constexpr Bytes kMaxWireBytes =
    std::numeric_limits<std::uint32_t>::max();

/// Four words: a deep queue holds tens of thousands of these, so the
/// fields are as narrow as the values they carry.
struct Packet {
  FlowId flow = 0;
  bool is_retransmit = false;
  SeqNo seq = 0;          ///< packet sequence number (per flow, 0-based)
  TimeNs enqueued_at = kTimeNone;  ///< set by the bottleneck on entry
  std::uint32_t wire_bytes = kDefaultMss + kHeaderBytes;
};
static_assert(sizeof(Packet) == 32, "a packet is four words");

/// Acknowledgement travelling the reverse path. ACKs are modelled as
/// delay-only (no reverse-path congestion), as in the paper's testbed where
/// the reverse direction was uncongested.
struct Ack {
  FlowId flow = 0;
  SeqNo acked_seq = 0;   ///< the packet that triggered this ACK (SACK-like)
  SeqNo cum_ack = 0;     ///< next in-order sequence expected by receiver
  TimeNs queue_delay_echo = 0;  ///< bottleneck sojourn of the acked packet
};

}  // namespace bbrnash
