// Test helper: a minimal single- or multi-flow dumbbell that exposes the
// live congestion-control objects for introspection while the simulation
// runs — used by the CC state-machine tests.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "cc/cc_variant.hpp"
#include "flow/receiver.hpp"
#include "flow/sender.hpp"
#include "net/bottleneck_link.hpp"
#include "net/delay_line.hpp"
#include "sim/simulator.hpp"

namespace bbrnash::testing {

class Loopback {
 public:
  /// `make_cc(i)` builds the congestion control for flow i.
  Loopback(BytesPerSec capacity, Bytes buffer_bytes, TimeNs rtt,
           std::size_t flows,
           const std::function<CcVariant(std::size_t)>& make_cc)
      : link_(sim_, capacity, buffer_bytes,
              static_cast<std::uint32_t>(flows)) {
    endpoints_.reserve(flows);
    for (std::size_t i = 0; i < flows; ++i) {
      auto ep = std::make_unique<Endpoint>();
      ep->receiver = std::make_unique<Receiver>(static_cast<FlowId>(i));
      ep->fwd = std::make_unique<DelayLine<Packet>>(sim_, rtt / 2);
      ep->rev = std::make_unique<DelayLine<Ack>>(sim_, rtt - rtt / 2);
      ep->sender = std::make_unique<Sender>(
          sim_, static_cast<FlowId>(i), SenderConfig{}, make_cc(i),
          [this](const Packet& p) { link_.send(p); });
      Endpoint* raw = ep.get();
      ep->fwd->set_sink(
          [raw](const Packet& p) { raw->receiver->on_packet(p, 0); });
      ep->receiver->set_ack_sink([raw](const Ack& a) { raw->rev->send(a); });
      ep->rev->set_sink([raw](const Ack& a) { raw->sender->on_ack(a); });
      endpoints_.push_back(std::move(ep));
    }
    link_.set_sink([this](const Packet& p) {
      endpoints_[p.flow]->fwd->send(p);
    });
  }

  void start_all() {
    for (auto& ep : endpoints_) ep->sender->start(0);
  }

  Simulator& sim() { return sim_; }
  BottleneckLink& link() { return link_; }
  Sender& sender(std::size_t i) { return *endpoints_.at(i)->sender; }
  const CcVariant& cc(std::size_t i) const {
    return endpoints_.at(i)->sender->cc();
  }

  /// Samples `fn` every `period` until `until`.
  void sample(TimeNs period, TimeNs until, std::function<void()> fn) {
    for (TimeNs t = period; t <= until; t += period) {
      sim_.schedule_at(t, fn);
    }
  }

 private:
  struct Endpoint {
    std::unique_ptr<Sender> sender;
    std::unique_ptr<Receiver> receiver;
    std::unique_ptr<DelayLine<Packet>> fwd;
    std::unique_ptr<DelayLine<Ack>> rev;
  };

  Simulator sim_;
  BottleneckLink link_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
};

}  // namespace bbrnash::testing
