// BottleneckLink: a rate server draining a drop-tail queue.
//
// Packets offered via send() enter the queue (or are dropped). A single
// serialization "server" drains the queue at the link rate; each packet is
// handed to the sink when its last byte has been serialized. Propagation
// delay to the receiver is the next hop's concern (see DelayLine), so this
// class models exactly the paper's bottleneck: capacity C plus buffer B.
//
// Service completions ride the simulator's fixed-delay lane for the head
// packet's serialization time. The lane (and that time) is looked up only
// when the wire size or the rate differs from the previous service, so
// rate schedules simply move later services to another lane.
//
// `Sink` receives each served packet (see net/sink.hpp); BottleneckLink is
// the std::function-sink instantiation.
#pragma once

#include <functional>
#include <memory>
#include <utility>

#include "net/aqm.hpp"
#include "net/drop_tail_queue.hpp"
#include "net/packet.hpp"
#include "net/sink.hpp"
#include "sim/simulator.hpp"

namespace bbrnash {

template <typename SinkT = std::function<void(const Packet&)>>
class BasicBottleneckLink {
 public:
  using Sink = SinkT;
  /// Invoked when a packet is dropped at the tail (for loss diagnostics).
  using DropHook = std::function<void(const Packet&)>;

  BasicBottleneckLink(Simulator& sim, BytesPerSec rate, Bytes buffer_capacity,
                      std::uint32_t num_flows)
      : sim_(sim), rate_(rate), queue_(buffer_capacity, num_flows) {}

  BasicBottleneckLink(const BasicBottleneckLink&) = delete;
  BasicBottleneckLink& operator=(const BasicBottleneckLink&) = delete;

  void set_sink(Sink sink) { sink_ = std::move(sink); }
  void set_drop_hook(DropHook hook) { drop_hook_ = std::move(hook); }

  /// Installs an AQM policy (RED/CoDel/...). Null restores pure drop-tail.
  void set_aqm(std::unique_ptr<AqmPolicy> aqm) { aqm_ = std::move(aqm); }
  [[nodiscard]] const AqmPolicy* aqm() const { return aqm_.get(); }

  /// Offers a packet to the bottleneck. Returns false when the AQM or the
  /// drop-tail capacity check rejected it.
  bool send(const Packet& pkt) {
    if (aqm_ != nullptr &&
        aqm_->drop_on_enqueue(sim_.now(), queue_.occupied_bytes(),
                              queue_.capacity(), pkt.wire_bytes)) {
      queue_.note_policy_drop(pkt.flow);
      if (drop_hook_) drop_hook_(pkt);
      return false;
    }
    if (!queue_.enqueue(pkt, sim_.now())) {
      if (drop_hook_) drop_hook_(pkt);
      return false;
    }
    if (!busy_) start_service();
    return true;
  }

  [[nodiscard]] DropTailQueue& queue() noexcept { return queue_; }
  [[nodiscard]] const DropTailQueue& queue() const noexcept { return queue_; }
  [[nodiscard]] BytesPerSec rate() const noexcept { return rate_; }

  /// Changes the service rate (link flaps, rate schedules). Takes effect at
  /// the next service start: the packet currently being serialized finishes
  /// at the old rate, like a NIC mid-frame. Rates must stay positive —
  /// a packet that starts serializing at rate ~0 would pin the server until
  /// its far-future completion even after the rate recovers, so outages are
  /// modelled as a deep rate reduction (see Scenario::validate).
  void set_rate(BytesPerSec rate) noexcept { rate_ = rate; }

  /// Total bytes fully serialized since construction (link utilization).
  [[nodiscard]] Bytes bytes_served() const noexcept { return bytes_served_; }
  /// Busy time accumulated by the server (for utilization = busy/elapsed).
  [[nodiscard]] TimeNs busy_time() const noexcept { return busy_time_; }

 private:
  void start_service() {
    // CoDel-style head drops happen as packets reach the server.
    while (aqm_ != nullptr && !queue_.empty()) {
      const Packet& head = peek_head();
      const TimeNs sojourn =
          head.enqueued_at == kTimeNone ? 0 : sim_.now() - head.enqueued_at;
      if (!aqm_->drop_on_dequeue(sim_.now(), sojourn)) break;
      Packet dropped = queue_.dequeue(sim_.now());
      queue_.note_policy_drop(dropped.flow);
      if (drop_hook_) drop_hook_(dropped);
    }
    if (queue_.empty()) {
      busy_ = false;
      return;
    }
    busy_ = true;
    // Peek the head: it is dequeued at *completion* so that queued bytes
    // include the in-service packet, matching how a NIC ring + tc qdisc
    // accounts buffer occupancy.
    const Packet& head = peek_head();
    if (head.wire_bytes != lane_wire_ || rate_ != lane_rate_) {
      lane_wire_ = head.wire_bytes;
      lane_rate_ = rate_;
      lane_tx_ = serialization_time(lane_wire_, lane_rate_);
      lane_ = sim_.lane(lane_tx_);
    }
    busy_time_ += lane_tx_;
    sim_.schedule_lane(lane_, [this] { complete_service(); });
  }

  void complete_service() {
    Packet pkt = queue_.dequeue(sim_.now());
    bytes_served_ += pkt.wire_bytes;
    call_sink(sink_, pkt);
    if (!queue_.empty()) {
      start_service();
    } else {
      busy_ = false;
    }
  }

  [[nodiscard]] const Packet& peek_head() const { return queue_.front(); }

  Simulator& sim_;
  BytesPerSec rate_;
  DropTailQueue queue_;
  Sink sink_;
  DropHook drop_hook_;
  std::unique_ptr<AqmPolicy> aqm_;
  bool busy_ = false;
  Bytes bytes_served_ = 0;
  TimeNs busy_time_ = 0;
  // The last service's (wire size, rate) and what they imply; a negative
  // rate never matches, so the first service looks its lane up.
  Bytes lane_wire_ = 0;
  BytesPerSec lane_rate_ = -1.0;
  TimeNs lane_tx_ = 0;
  LaneId lane_ = 0;
};

using BottleneckLink = BasicBottleneckLink<>;

}  // namespace bbrnash
