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
/// the allocation counts observed between `warmup` and `duration`.
SteadyAllocs run_dumbbell(int bbr_flows, int cubic_flows, BytesPerSec capacity,
                          double buffer_bdps, const ImpairmentConfig& impair,
                          TimeNs warmup, TimeNs duration) {
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

  std::vector<std::unique_ptr<Sender>> senders;
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
    ImpairmentStage<Packet>* stage = stages[i].get();
    senders.push_back(std::make_unique<Sender>(
        sim, i, SenderConfig{}, make_cc_variant(kind, cfg),
        [&link, stage](const Packet& p) {
          if (stage != nullptr) {
            stage->send(p);
          } else {
            link.send(p);
          }
        }));
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
