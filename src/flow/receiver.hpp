// Receiver: acknowledges every data packet immediately.
//
// The ACK carries both the triggering packet's sequence number (equivalent
// to SACK information — the sender can mark that exact packet delivered)
// and the cumulative next-expected sequence. There is no delayed ACK; the
// paper's testbed senders were Linux with quickack-like behaviour under
// loss, and per-packet ACKs keep the ACK clock simple and exact.
//
// The reorder buffer is a flag ring indexed relative to the cumulative
// point rather than a std::set: membership of seq s lives at
// ooo_[s - cum_next_ - 1]. Inserting under reordering and draining after a
// hole fills are O(gap) flag flips with no per-packet allocation — the set
// allocated a node per buffered packet, which was one of the last
// allocation sources on the impaired-path hot loop.
//
// `AckSinkT` receives each ACK (see net/sink.hpp); Receiver is the
// std::function-sink instantiation.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "net/packet.hpp"
#include "net/sink.hpp"
#include "util/ring_deque.hpp"

namespace bbrnash {

template <typename AckSinkT = std::function<void(const Ack&)>>
class BasicReceiver {
 public:
  using AckSink = AckSinkT;

  explicit BasicReceiver(FlowId flow) : flow_(flow) {}

  void set_ack_sink(AckSink sink) { ack_sink_ = std::move(sink); }

  /// Pre-sizes the reorder ring for holes spanning up to `packets` (a perf
  /// knob; the ring still grows on demand past the hint).
  void reserve_reorder(std::size_t packets) { ooo_.reserve(packets); }

  /// Consumes a data packet; emits exactly one ACK.
  void on_packet(const Packet& pkt, TimeNs queue_delay) {
    if (pkt.seq == cum_next_) {
      ++cum_next_;
      // Drain buffered packets now in order. The ring's base is pinned at
      // cum_next_ + 1, so each advance consumes exactly the front flag.
      while (!ooo_.empty() && ooo_.front() != 0) {
        ooo_.pop_front();
        --ooo_count_;
        ++cum_next_;
      }
      if (!ooo_.empty()) ooo_.pop_front();  // flag slot for the new hole
    } else if (pkt.seq > cum_next_) {
      const auto idx = static_cast<std::size_t>(pkt.seq - cum_next_ - 1);
      while (ooo_.size() <= idx) ooo_.push_back(0);
      if (ooo_[idx] == 0) {
        ooo_[idx] = 1;
        ++ooo_count_;
      }
    }
    // seq < cum_next_: duplicate (spurious retransmit); still ACK it so the
    // sender's bookkeeping converges.
    ++packets_received_;
    call_sink(ack_sink_, Ack{flow_, pkt.seq, cum_next_, queue_delay});
  }

  [[nodiscard]] SeqNo cumulative_next() const noexcept { return cum_next_; }
  [[nodiscard]] std::uint64_t packets_received() const noexcept {
    return packets_received_;
  }
  [[nodiscard]] std::size_t reorder_buffer_size() const noexcept {
    return ooo_count_;
  }

 private:
  FlowId flow_;
  AckSink ack_sink_;
  SeqNo cum_next_ = 0;
  /// ooo_[i] != 0 iff packet (cum_next_ + 1 + i) is buffered. Trailing
  /// zeros may linger; ooo_count_ is the buffered-packet count.
  RingDeque<std::uint8_t> ooo_;
  std::size_t ooo_count_ = 0;
  std::uint64_t packets_received_ = 0;
};

using Receiver = BasicReceiver<>;

}  // namespace bbrnash
