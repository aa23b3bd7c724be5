// Byte-accurate FIFO drop-tail queue with the instrumentation the paper's
// model reasons about: time-averaged total and per-flow occupancy, per-flow
// minimum/maximum occupancy, and drop accounting.
//
// This class is a pure data structure; service timing is driven by
// BottleneckLink.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace bbrnash {

class DropTailQueue {
 public:
  /// `capacity` is the maximum queued bytes (the paper's B). `num_flows`
  /// sizes the per-flow instrumentation arrays.
  DropTailQueue(Bytes capacity, std::uint32_t num_flows);

  /// Attempts to enqueue; returns false (and records a drop) when the
  /// packet does not fit. `now` drives occupancy integration.
  bool enqueue(Packet pkt, TimeNs now);

  /// Pops the head-of-line packet. Pre: !empty().
  Packet dequeue(TimeNs now);

  /// Pre-sizes the packet store for `packets` queued packets. Without it
  /// the store grows a segment at a time as the queue first fills.
  void reserve(std::size_t packets) { packets_.reserve(packets); }

  [[nodiscard]] bool empty() const noexcept { return packets_.empty(); }
  /// Head-of-line packet (the one in service). Pre: !empty().
  [[nodiscard]] const Packet& front() const { return packets_.front(); }
  [[nodiscard]] Bytes occupied_bytes() const noexcept { return occupied_; }
  /// Largest total occupancy ever reached (drives the always-on
  /// "queue never exceeds B" invariant guard in the experiment layer).
  [[nodiscard]] Bytes max_occupied_bytes() const noexcept {
    return max_occupied_;
  }
  [[nodiscard]] Bytes capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t packet_count() const noexcept { return packets_.size(); }

  [[nodiscard]] Bytes flow_occupancy(FlowId flow) const {
    return per_flow_bytes_.at(flow);
  }
  /// Packets (not bytes) of one flow currently queued — the conservation
  /// audit's in-flight term for the bottleneck buffer.
  [[nodiscard]] std::uint32_t flow_packets(FlowId flow) const {
    return per_flow_packets_.at(flow);
  }

  // --- Instrumentation -------------------------------------------------
  // Occupancy averages are time-weighted and only meaningful after at
  // least one enqueue/dequeue; begin_measurement() restarts the averaging
  // window (used to discard warm-up transients).

  void begin_measurement(TimeNs now);

  /// Flushes all time-weighted integrals up to `now`. Call once before
  /// reading the avg_* accessors at the end of a run.
  void finalize(TimeNs now);

  /// Time-averaged total occupancy (bytes) since begin_measurement().
  [[nodiscard]] double avg_occupied_bytes() const {
    return total_avg_.average();
  }
  /// Time-averaged occupancy of one flow (the model's b_b / per-flow b_c).
  [[nodiscard]] double avg_flow_occupancy(FlowId flow) const {
    return per_flow_avg_.at(flow).average();
  }
  /// Smallest/largest occupancy one flow reached inside the measurement
  /// window (the model's b_cmin / b_cmax when aggregated over CUBIC flows).
  [[nodiscard]] Bytes min_flow_occupancy(FlowId flow) const {
    return per_flow_min_.at(flow);
  }
  [[nodiscard]] Bytes max_flow_occupancy(FlowId flow) const {
    return per_flow_max_.at(flow);
  }

  /// Counts a drop decided outside the capacity check (AQM early/head
  /// drops) so per-flow loss accounting stays complete.
  void note_policy_drop(FlowId flow) {
    ++per_flow_drops_.at(flow);
    ++total_drops_;
  }

  [[nodiscard]] std::uint64_t drops(FlowId flow) const {
    return per_flow_drops_.at(flow);
  }
  [[nodiscard]] std::uint64_t total_drops() const noexcept { return total_drops_; }

  /// Aggregate occupancy extremes for a *set* of flows require sampling the
  /// sum at every transition; expose the current totals so callers can hook
  /// a sampler, and track group minima natively for the common CUBIC-set
  /// case used in model validation.
  void track_group(std::vector<FlowId> flows);
  [[nodiscard]] Bytes group_min_occupancy() const noexcept { return group_min_; }
  [[nodiscard]] Bytes group_max_occupancy() const noexcept { return group_max_; }
  [[nodiscard]] double group_avg_occupancy() const { return group_avg_.average(); }

 private:
  void integrate(FlowId flow, TimeNs now);
  void bump_extremes(FlowId flow);

  Bytes capacity_;
  Bytes occupied_ = 0;
  Bytes max_occupied_ = 0;
  PacketRing packets_;  ///< recycled slots: no allocation at steady state

  std::vector<Bytes> per_flow_bytes_;
  std::vector<std::uint32_t> per_flow_packets_;
  std::vector<Bytes> per_flow_min_;
  std::vector<Bytes> per_flow_max_;
  std::vector<std::uint64_t> per_flow_drops_;
  std::uint64_t total_drops_ = 0;

  TimeWeightedAverage total_avg_;
  std::vector<TimeWeightedAverage> per_flow_avg_;

  std::vector<bool> in_group_;
  Bytes group_bytes_ = 0;
  Bytes group_min_ = 0;
  Bytes group_max_ = 0;
  TimeWeightedAverage group_avg_;
  bool group_active_ = false;
};

}  // namespace bbrnash
