// Zero-allocation assertion for the simulator hot path.
//
// This binary links `bbrnash_alloccount`, which replaces the global
// allocation functions with counting versions (src/util/alloc_counter.*).
// The test wires a dumbbell directly onto the simulator — same shape as
// bench_perf_simcore, scaled down to test size — pre-sizes every pool,
// runs past warmup, and then requires that the steady-state window
// performs *zero* operator new / delete calls. Steady-state allocation
// counts depend only on the simulated workload (never on wall-clock
// timing), so the exact-zero assertion is deterministic and CI-safe, and
// it holds in sanitizer builds too: the sanitize/tsan presets run this
// test, so a pooling regression fails loudly everywhere.

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "cc/cc_variant.hpp"
#include "flow/receiver.hpp"
#include "flow/sender.hpp"
#include "net/bottleneck_link.hpp"
#include "net/delay_line.hpp"
#include "net/impairment.hpp"
#include "sim/simulator.hpp"
#include "util/alloc_counter.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace bbrnash {
namespace {

struct Delivery {
  Packet pkt;
  TimeNs sojourn;
};

struct SteadyAllocs {
  std::uint64_t news = 0;
  std::uint64_t deletes = 0;
  std::uint64_t events = 0;
};

/// Runs `bbr_flows` + `cubic_flows` over a shared bottleneck and returns
/// the allocation counts observed between `warmup` and `duration`. Each
/// sender's exit hop is `make_exit(sim, link, flow, stage)`, where `stage`
/// is the flow's impairment stage or null.
template <class Transmit, class MakeExit>
SteadyAllocs run_dumbbell_via(int bbr_flows, int cubic_flows,
                              BytesPerSec capacity, double buffer_bdps,
                              const ImpairmentConfig& impair, TimeNs warmup,
                              TimeNs duration, MakeExit make_exit) {
  const auto n = static_cast<std::uint32_t>(bbr_flows + cubic_flows);
  const TimeNs rtt = from_ms(40);
  Simulator sim;
  const Bytes bdp = bdp_bytes(capacity, rtt);
  const Bytes buffer = std::max<Bytes>(
      3 * (kDefaultMss + kHeaderBytes),
      static_cast<Bytes>(static_cast<double>(bdp) * buffer_bdps));
  BottleneckLink link{sim, capacity, buffer, n};

  // Same pre-sizing policy as the perf harness: every pool past its
  // expected high-water mark, so steady state never grows one.
  const auto total_window_pkts = static_cast<std::size_t>(
      (bdp + buffer) / (kDefaultMss + kHeaderBytes) + 1);
  const std::size_t per_flow_pkts = 4 * total_window_pkts / n + 512;
  sim.reserve_events(16 * total_window_pkts + 4096);

  std::vector<std::unique_ptr<BasicSender<CcVariant, Transmit>>> senders;
  std::vector<std::unique_ptr<Receiver>> receivers;
  std::vector<std::unique_ptr<DelayLine<Delivery>>> fwd;
  std::vector<std::unique_ptr<DelayLine<Ack>>> rev;
  std::vector<std::unique_ptr<ImpairmentStage<Packet>>> stages(n);
  senders.reserve(n);
  receivers.reserve(n);
  fwd.reserve(n);
  rev.reserve(n);

  for (std::uint32_t i = 0; i < n; ++i) {
    receivers.push_back(std::make_unique<Receiver>(i));
    fwd.push_back(std::make_unique<DelayLine<Delivery>>(sim, rtt / 2));
    rev.push_back(std::make_unique<DelayLine<Ack>>(sim, rtt - rtt / 2));
    if (impair.any()) {
      stages[i] = std::make_unique<ImpairmentStage<Packet>>(sim, impair,
                                                            1000 + i);
      stages[i]->set_sink([&link](const Packet& p) { link.send(p); });
    }

    CcConfig cfg;
    cfg.seed = 77 + i;
    const CcKind kind = i < static_cast<std::uint32_t>(bbr_flows)
                            ? CcKind::kBbr
                            : CcKind::kCubic;
    senders.push_back(std::make_unique<BasicSender<CcVariant, Transmit>>(
        sim, i, SenderConfig{}, make_cc_variant(kind, cfg),
        make_exit(sim, link, i, stages[i].get())));
    senders.back()->reserve_windows(per_flow_pkts);
    receivers.back()->reserve_reorder(per_flow_pkts);

    fwd[i]->set_sink([&receivers, i](const Delivery& d) {
      receivers[i]->on_packet(d.pkt, d.sojourn);
    });
    receivers[i]->set_ack_sink(
        [&rev, i](const Ack& ack) { rev[i]->send(ack); });
    rev[i]->set_sink(
        [&senders, i](const Ack& ack) { senders[i]->on_ack(ack); });
  }
  link.set_sink([&sim, &fwd](const Packet& pkt) {
    const TimeNs sojourn =
        pkt.enqueued_at == kTimeNone ? 0 : sim.now() - pkt.enqueued_at;
    fwd[pkt.flow]->send(Delivery{pkt, sojourn});
  });

  for (std::uint32_t i = 0; i < n; ++i) {
    senders[i]->start(static_cast<TimeNs>(i) * (rtt / std::max(1u, n)));
  }

  sim.run_until(warmup);
  const std::uint64_t warm_events = sim.events_executed();
  const std::uint64_t warm_news = allocs::news();
  const std::uint64_t warm_deletes = allocs::deletes();
  sim.run_until(duration);

  SteadyAllocs out;
  out.news = allocs::news() - warm_news;
  out.deletes = allocs::deletes() - warm_deletes;
  out.events = sim.events_executed() - warm_events;
  return out;
}

/// run_dumbbell_via with a std::function exit straight into the flow's
/// impairment stage, or the bottleneck when the path is clean.
SteadyAllocs run_dumbbell(int bbr_flows, int cubic_flows, BytesPerSec capacity,
                          double buffer_bdps, const ImpairmentConfig& impair,
                          TimeNs warmup, TimeNs duration) {
  return run_dumbbell_via<Sender::TransmitFn>(
      bbr_flows, cubic_flows, capacity, buffer_bdps, impair, warmup, duration,
      [](Simulator&, BottleneckLink& link, std::uint32_t,
         ImpairmentStage<Packet>* stage) -> Sender::TransmitFn {
        return [&link, stage](const Packet& p) {
          if (stage != nullptr) {
            stage->send(p);
          } else {
            link.send(p);
          }
        };
      });
}

/// The scenario runner's access path: each packet reaches the bottleneck
/// up to one serialization time late, never before the flow's previous
/// packet, through the flow's private lane.
struct AccessState {
  Simulator* sim;
  BottleneckLink* link;
  LaneId lane;
  Rng rng;
  TimeNs jitter;
  TimeNs last_arrival = 0;

  void transmit(const Packet& pkt) {
    last_arrival = std::max(
        last_arrival + 1,
        sim->now() + static_cast<TimeNs>(rng.next_below(
                         static_cast<std::uint64_t>(jitter))));
    sim->schedule_lane_at(lane, last_arrival, [this, pkt] { link->send(pkt); });
  }
};

/// A typed exit hop into an AccessState, as the scenario runner wires it.
struct AccessHop {
  AccessState* state;
  void operator()(const Packet& pkt) const { state->transmit(pkt); }
};

// The paper's Fig. 3 shape: one BBR vs one CUBIC flow. After warmup the
// entire event loop — heap maintenance, slot pool, packet rings, CC state,
// pacing — must run without touching the allocator.
TEST(ZeroAlloc, TwoFlowSteadyStateAllocatesNothing) {
  const SteadyAllocs a =
      run_dumbbell(1, 1, mbps(50), 1.0, ImpairmentConfig{}, from_sec(2),
                   from_sec(5));
  EXPECT_GT(a.events, 10000u) << "scenario too small to be meaningful";
  EXPECT_EQ(a.news, 0u) << "steady-state hot path allocated";
  EXPECT_EQ(a.deletes, 0u) << "steady-state hot path freed";
}

// Many flows: per-flow pools and the shared event heap all at their
// high-water marks simultaneously.
TEST(ZeroAlloc, TenFlowSteadyStateAllocatesNothing) {
  const SteadyAllocs a =
      run_dumbbell(5, 5, mbps(100), 1.0, ImpairmentConfig{}, from_sec(2),
                   from_sec(4));
  EXPECT_GT(a.events, 10000u);
  EXPECT_EQ(a.news, 0u) << "steady-state hot path allocated";
  EXPECT_EQ(a.deletes, 0u) << "steady-state hot path freed";
}

// The production wiring: typed exit hops and jittered access arrivals on
// per-flow private lanes, whose segments must reach their high-water mark
// during warmup like every other pool.
TEST(ZeroAlloc, AccessLaneSteadyStateAllocatesNothing) {
  for (const int per_kind : {1, 5}) {
    SCOPED_TRACE(per_kind);
    std::vector<AccessState> access;
    access.reserve(2 * static_cast<std::size_t>(per_kind));
    const BytesPerSec capacity = mbps(50);
    const SteadyAllocs a = run_dumbbell_via<AccessHop>(
        per_kind, per_kind, capacity, 1.0, ImpairmentConfig{}, from_sec(2),
        from_sec(5),
        [&access, capacity](Simulator& sim, BottleneckLink& link,
                            std::uint32_t flow, ImpairmentStage<Packet>*) {
          access.push_back(AccessState{
              &sim, &link, sim.private_lane(), Rng{500 + flow},
              serialization_time(kDefaultMss + kHeaderBytes, capacity)});
          return AccessHop{&access.back()};
        });
    EXPECT_GT(a.events, 10000u);
    EXPECT_EQ(a.news, 0u) << "steady-state hot path allocated";
    EXPECT_EQ(a.deletes, 0u) << "steady-state hot path freed";
  }
}

// Loss + jitter + reordering drives the retransmit and out-of-order
// reassembly paths, which historically hid per-packet allocations.
TEST(ZeroAlloc, ImpairedSteadyStateAllocatesNothing) {
  ImpairmentConfig impair;
  impair.loss_rate = 0.005;
  impair.jitter = from_ms(2);
  impair.reorder_rate = 0.001;
  impair.reorder_delay = from_ms(5);
  const SteadyAllocs a =
      run_dumbbell(1, 1, mbps(50), 1.0, impair, from_sec(2), from_sec(5));
  EXPECT_GT(a.events, 10000u);
  EXPECT_EQ(a.news, 0u) << "steady-state hot path allocated";
  EXPECT_EQ(a.deletes, 0u) << "steady-state hot path freed";
}

}  // namespace
}  // namespace bbrnash
