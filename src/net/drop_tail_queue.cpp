#include "net/drop_tail_queue.hpp"

#include <algorithm>
#include <stdexcept>

namespace bbrnash {

DropTailQueue::DropTailQueue(Bytes capacity, std::uint32_t num_flows)
    : capacity_(capacity),
      per_flow_bytes_(num_flows, 0),
      per_flow_packets_(num_flows, 0),
      per_flow_min_(num_flows, 0),
      per_flow_max_(num_flows, 0),
      per_flow_drops_(num_flows, 0),
      per_flow_avg_(num_flows),
      in_group_(num_flows, false) {
  if (capacity <= 0) throw std::invalid_argument{"queue capacity must be > 0"};
  // Anchor every time-weighted average at t = 0 so empty periods before the
  // first packet are correctly integrated as zero occupancy.
  finalize(0);
}

bool DropTailQueue::enqueue(Packet pkt, TimeNs now) {
  if (pkt.flow >= per_flow_bytes_.size()) {
    throw std::out_of_range{"unregistered flow id"};
  }
  if (occupied_ + pkt.wire_bytes > capacity_) {
    ++per_flow_drops_[pkt.flow];
    ++total_drops_;
    return false;
  }
  occupied_ += pkt.wire_bytes;
  max_occupied_ = std::max(max_occupied_, occupied_);
  per_flow_bytes_[pkt.flow] += pkt.wire_bytes;
  ++per_flow_packets_[pkt.flow];
  bump_extremes(pkt.flow);
  if (group_active_ && in_group_[pkt.flow]) {
    group_bytes_ += pkt.wire_bytes;
    group_max_ = std::max(group_max_, group_bytes_);
  }
  integrate(pkt.flow, now);
  pkt.enqueued_at = now;
  packets_.push_back(pkt);
  return true;
}

Packet DropTailQueue::dequeue(TimeNs now) {
  if (packets_.empty()) throw std::logic_error{"dequeue on empty queue"};
  Packet pkt = packets_.front();
  packets_.pop_front();
  occupied_ -= pkt.wire_bytes;
  per_flow_bytes_[pkt.flow] -= pkt.wire_bytes;
  --per_flow_packets_[pkt.flow];
  bump_extremes(pkt.flow);
  if (group_active_ && in_group_[pkt.flow]) {
    group_bytes_ -= pkt.wire_bytes;
    group_min_ = std::min(group_min_, group_bytes_);
  }
  integrate(pkt.flow, now);
  return pkt;
}

void DropTailQueue::begin_measurement(TimeNs now) {
  total_avg_ = TimeWeightedAverage{};
  for (auto& avg : per_flow_avg_) avg = TimeWeightedAverage{};
  group_avg_ = TimeWeightedAverage{};
  // Re-seed the extreme trackers from the *current* state so warm-up
  // transients (e.g., slow-start overshoot) do not contaminate them.
  for (std::size_t f = 0; f < per_flow_bytes_.size(); ++f) {
    per_flow_min_[f] = per_flow_bytes_[f];
    per_flow_max_[f] = per_flow_bytes_[f];
  }
  group_min_ = group_bytes_;
  group_max_ = group_bytes_;
  finalize(now);
}

void DropTailQueue::track_group(std::vector<FlowId> flows) {
  std::fill(in_group_.begin(), in_group_.end(), false);
  group_bytes_ = 0;
  for (const FlowId f : flows) {
    in_group_.at(f) = true;
    group_bytes_ += per_flow_bytes_[f];
  }
  group_min_ = group_bytes_;
  group_max_ = group_bytes_;
  group_active_ = true;
}

// Each TimeWeightedAverage carries its own last-update time, so it is
// sufficient (and much cheaper) to update a flow's average only when that
// flow's occupancy changes. Called AFTER the mutation: update(t, v)
// integrates the previous value across the elapsed span, then records v.
void DropTailQueue::integrate(FlowId flow, TimeNs now) {
  const auto t = to_sec(now);
  total_avg_.update(t, static_cast<double>(occupied_));
  per_flow_avg_[flow].update(t, static_cast<double>(per_flow_bytes_[flow]));
  if (group_active_ && in_group_[flow]) {
    group_avg_.update(t, static_cast<double>(group_bytes_));
  }
}

void DropTailQueue::finalize(TimeNs now) {
  const auto t = to_sec(now);
  total_avg_.update(t, static_cast<double>(occupied_));
  for (std::size_t f = 0; f < per_flow_avg_.size(); ++f) {
    per_flow_avg_[f].update(t, static_cast<double>(per_flow_bytes_[f]));
  }
  if (group_active_) group_avg_.update(t, static_cast<double>(group_bytes_));
}

void DropTailQueue::bump_extremes(FlowId flow) {
  per_flow_min_[flow] = std::min(per_flow_min_[flow], per_flow_bytes_[flow]);
  per_flow_max_[flow] = std::max(per_flow_max_[flow], per_flow_bytes_[flow]);
}

}  // namespace bbrnash
