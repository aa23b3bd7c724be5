// Dumbbell: the paper's Fig. 2 topology, wired from a Scenario onto a
// Simulator the caller owns.
//
// Per flow i (base RTT r_i):
//
//   Sender_i -> access path (jitter, private lane) -> [impairment stage]
//            -> BottleneckLink (rate C, buffer B, AQM)
//            -> forward DelayLine (r_i/2) -> Receiver_i
//   Receiver_i -> [ACK impairment stage] -> reverse DelayLine -> Sender_i
//
// The hops are small structs whose operator() calls the next element
// directly, so a packet's hop chain inlines end to end (see net/sink.hpp).
// Construction also schedules the rate schedule and the flow starts, so
// whatever the caller schedules before it (chaos faults) fires ahead of
// them at equal times, and whatever it schedules after (samplers, warm-up)
// behind. execute_scenario runs it and collects the results; the
// zero-allocation test, bench_perf_simcore and debug_trace drive the same
// wiring.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cc/cc_variant.hpp"
#include "exp/scenario.hpp"
#include "flow/receiver.hpp"
#include "flow/sender.hpp"
#include "net/bottleneck_link.hpp"
#include "net/delay_line.hpp"
#include "net/impairment.hpp"
#include "sim/audit.hpp"
#include "sim/flight_recorder.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace bbrnash {

class Dumbbell {
 public:
  struct AccessPath;

  /// Sender exit: the packet enters its flow's access path.
  struct AccessEntry {
    AccessPath* path = nullptr;
    void operator()(const Packet& pkt) const;
  };
  using FlowSender = BasicSender<CcVariant, AccessEntry>;

  /// Reverse-path exit: the ACK reaches its sender.
  struct AckArrival {
    FlowSender* sender = nullptr;
    void operator()(const Ack& ack) const { sender->on_ack(ack); }
  };
  using ReversePath = DelayLine<Ack, AckArrival>;

  /// Receiver exit: the ACK enters the reverse path, through the flow's
  /// ACK impairment stage when it has one.
  struct AckDeparture {
    ImpairmentStage<Ack>* stage = nullptr;
    ReversePath* rev = nullptr;
    void operator()(const Ack& ack) const {
      if (stage != nullptr) {
        stage->send(ack);
      } else {
        rev->send(ack);
      }
    }
  };
  using FlowReceiver = BasicReceiver<AckDeparture>;

  /// A packet plus its bottleneck sojourn, travelling the forward path.
  struct Delivery {
    Packet pkt;
    TimeNs sojourn;
  };

  /// Forward-path exit: the packet reaches its receiver, noted by the
  /// flight recorder when one is attached.
  struct PacketArrival {
    FlowReceiver* receiver = nullptr;
    FlightRecorder* recorder = nullptr;
    const Simulator* sim = nullptr;
    void operator()(const Delivery& d) const {
      if (recorder != nullptr) {
        recorder->note(sim->now(), FlightEventKind::kDeliver, d.pkt.flow,
                       d.pkt.seq);
      }
      receiver->on_packet(d.pkt, d.sojourn);
    }
  };
  using ForwardPath = DelayLine<Delivery, PacketArrival>;

  /// Bottleneck exit: the served packet enters its flow's forward path
  /// with its queue sojourn.
  struct LinkExit {
    const Simulator* sim = nullptr;
    const std::unique_ptr<ForwardPath>* fwd = nullptr;  ///< indexed by flow
    void operator()(const Packet& pkt) const {
      const TimeNs sojourn =
          pkt.enqueued_at == kTimeNone ? 0 : sim->now() - pkt.enqueued_at;
      fwd[pkt.flow]->send(Delivery{pkt, sojourn});
    }
  };
  using Link = BasicBottleneckLink<LinkExit>;

  /// A flow's access path to the bottleneck. Access jitter (see
  /// Scenario::access_jitter) has a monotonicity guard so a flow's own
  /// packets are never reordered (deliberate reordering is the impairment
  /// stage's job); the packet then enters the flow's impairment stage, or
  /// the bottleneck when the path is clean. The audit ledger and the flight
  /// recorder are noted when attached. The guard makes the flow's arrival
  /// times strictly increasing, so they ride the flow's own private lane
  /// rather than the timing wheel. Access events capture one pointer plus
  /// the packet, which keeps them inside the lane entry's inline buffer.
  struct AccessPath {
    Simulator* sim = nullptr;
    Link* link = nullptr;
    ImpairmentStage<Packet>* stage = nullptr;
    ConservationAudit* audit = nullptr;
    FlightRecorder* recorder = nullptr;
    FlowId flow = 0;
    Rng rng;
    TimeNs jitter = 1;
    LaneId lane = 0;  ///< a private lane (Simulator::private_lane)
    TimeNs last_arrival = 0;

    void transmit(const Packet& pkt) {
      if (audit != nullptr) audit->note_injected(flow);
      if (recorder != nullptr) {
        recorder->note(sim->now(), FlightEventKind::kInject, flow, pkt.seq,
                       pkt.is_retransmit ? 1 : 0);
      }
      last_arrival = std::max(
          last_arrival + 1,
          sim->now() + static_cast<TimeNs>(rng.next_below(
                           static_cast<std::uint64_t>(jitter))));
      sim->schedule_lane_at(lane, last_arrival, [this, pkt] { arrive(pkt); });
    }

    void arrive(const Packet& pkt) const {
      if (audit != nullptr) audit->note_access_exit(flow);
      if (stage != nullptr) {
        stage->send(pkt);
      } else {
        link->send(pkt);
      }
    }
  };

  /// Wires `scenario` (validated by the caller) onto `sim` and schedules
  /// its rate schedule and flow starts. `audit` and `recorder` are noted
  /// along the way when non-null; both must outlive the Dumbbell, which
  /// must outlive every run of `sim`.
  Dumbbell(Simulator& sim, const Scenario& scenario,
           ConservationAudit* audit = nullptr,
           FlightRecorder* recorder = nullptr);
  Dumbbell(const Dumbbell&) = delete;
  Dumbbell& operator=(const Dumbbell&) = delete;

  /// Pre-sizes every per-packet pool (event pool, access lanes, sender
  /// windows, reorder rings) past its expected high-water mark, so a run
  /// that reaches steady state grows none of them. The hint is the
  /// scenario's BDP plus buffer in packets: the aggregate in-flight span,
  /// each packet of which accounts for a handful of scheduled events. Each
  /// flow's pools get twice that span plus slack, not a share of it: a
  /// flow whose loss-recovery hole stays open keeps sending past it, so
  /// one flow's tracked span can outgrow the whole window. Every pool
  /// still grows on demand past the hint. The simulation itself never
  /// calls this; it is for runs that assert zero steady-state allocations.
  void reserve();

  [[nodiscard]] std::uint32_t flows() const noexcept { return n_; }
  [[nodiscard]] Link& link() noexcept { return link_; }
  [[nodiscard]] const FlowSender& sender(std::uint32_t i) const {
    return *senders_[i];
  }
  [[nodiscard]] const FlowReceiver& receiver(std::uint32_t i) const {
    return *receivers_[i];
  }
  [[nodiscard]] const ForwardPath& forward_path(std::uint32_t i) const {
    return *fwd_lines_[i];
  }
  [[nodiscard]] const ReversePath& reverse_path(std::uint32_t i) const {
    return *rev_lines_[i];
  }
  /// The flow's data-path impairment stage; null on a clean path.
  [[nodiscard]] const ImpairmentStage<Packet>* data_stage(
      std::uint32_t i) const {
    return data_stages_[i].get();
  }
  /// The flow's ACK-path impairment stage; null on a clean path.
  [[nodiscard]] const ImpairmentStage<Ack>* ack_stage(std::uint32_t i) const {
    return ack_stages_[i].get();
  }
  /// The CUBIC flows, whose aggregate queue occupancy the link tracks.
  [[nodiscard]] const std::vector<FlowId>& cubic_flows() const noexcept {
    return cubic_flows_;
  }

  /// Starts the measurement window at now(): the queue's occupancy
  /// averages and every sender's counters.
  void begin_measurement();

 private:
  Simulator& sim_;
  std::uint32_t n_;
  /// reserve()'s hint: the scenario's BDP (at its longest base RTT) plus
  /// buffer, in packets.
  std::size_t window_packets_;
  Link link_;
  std::vector<std::unique_ptr<FlowSender>> senders_;
  std::vector<std::unique_ptr<FlowReceiver>> receivers_;
  std::vector<std::unique_ptr<ForwardPath>> fwd_lines_;
  std::vector<std::unique_ptr<ReversePath>> rev_lines_;
  // Created only for impaired paths, so the pristine configuration is
  // exactly the simulation without an impairment layer.
  std::vector<std::unique_ptr<ImpairmentStage<Packet>>> data_stages_;
  std::vector<std::unique_ptr<ImpairmentStage<Ack>>> ack_stages_;
  /// Never resized after construction: each sender and access event
  /// points into it.
  std::vector<AccessPath> access_;
  std::vector<FlowId> cubic_flows_;
};

inline void Dumbbell::AccessEntry::operator()(const Packet& pkt) const {
  path->transmit(pkt);
}

}  // namespace bbrnash
