// DelayLine: a fixed-latency, infinite-capacity pipe.
//
// Models propagation delay on an uncongested path segment: everything put
// in comes out `delay` later, in order. Used for the forward path from the
// bottleneck to each receiver and for the entire reverse (ACK) path.
//
// In-flight items ride inside event records on the simulator's
// fixed-delay lane for `delay` (see sim/event_queue.hpp), which every
// DelayLine with the same delay shares. The record captures the line's
// pointer plus the item, so for the hot-path payloads (Ack, and a Packet
// with its sojourn) it stays inside kEventInlineBytes.
//
// `Sink` receives each item as it comes out (see net/sink.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "net/sink.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"

namespace bbrnash {

template <typename T, typename SinkT = std::function<void(const T&)>>
class DelayLine {
 public:
  using Sink = SinkT;

  DelayLine(Simulator& sim, TimeNs delay)
      : sim_(sim), delay_(delay), lane_(sim.lane(delay)) {}

  void set_sink(Sink sink) { sink_ = std::move(sink); }
  [[nodiscard]] TimeNs delay() const noexcept { return delay_; }

  void send(T item) {
    ++pending_;
    sim_.schedule_lane(lane_, [this, item = std::move(item)] {
      --pending_;
      call_sink(sink_, item);
    });
  }

  /// Items currently inside the pipe — the conservation audit's in-flight
  /// term for this path segment.
  [[nodiscard]] std::uint64_t pending() const noexcept { return pending_; }

 private:
  Simulator& sim_;
  TimeNs delay_;
  LaneId lane_;
  Sink sink_;
  std::uint64_t pending_ = 0;
};

}  // namespace bbrnash
