// BBR state-machine tests, driven through a real single-flow simulation so
// rounds, delivery-rate samples, and the ack clock are authentic.
#include "cc/bbr.hpp"

#include <set>

#include <gtest/gtest.h>

#include "helpers/loopback.hpp"

namespace bbrnash {
namespace {

using bbrnash::testing::Loopback;

CcVariant make_bbr(std::size_t) {
  BbrConfig cfg;
  cfg.seed = 42;
  return CcVariant{Bbr{cfg}};
}

const Bbr& as_bbr(const CcVariant& cc) { return cc.get<Bbr>(); }

TEST(Bbr, StartupFindsBandwidthWithinTwentyRtts) {
  // 20 Mbps, 40 ms: BDP ~ 69 packets. Startup doubles per RTT.
  Loopback lb{mbps(20), 4 * bdp_bytes(mbps(20), from_ms(40)), from_ms(40), 1,
              make_bbr};
  lb.start_all();
  lb.sim().run_until(from_ms(40) * 20);
  const auto& bbr = as_bbr(lb.cc(0));
  EXPECT_NEAR(to_mbps(bbr.btlbw()), 20.0, 4.0);
}

TEST(Bbr, ReachesProbeBwAndStaysThere) {
  Loopback lb{mbps(20), 4 * bdp_bytes(mbps(20), from_ms(40)), from_ms(40), 1,
              make_bbr};
  lb.start_all();
  lb.sim().run_until(from_sec(5));
  EXPECT_EQ(as_bbr(lb.cc(0)).state(), Bbr::State::kProbeBw);
}

TEST(Bbr, RtPropMatchesPathRtt) {
  Loopback lb{mbps(20), 4 * bdp_bytes(mbps(20), from_ms(40)), from_ms(40), 1,
              make_bbr};
  lb.start_all();
  lb.sim().run_until(from_sec(5));
  // Base 40 ms plus one serialization time or so.
  EXPECT_NEAR(to_ms(as_bbr(lb.cc(0)).rtprop()), 40.0, 2.0);
}

TEST(Bbr, CwndIsTwiceEstimatedBdpInProbeBw) {
  Loopback lb{mbps(20), 4 * bdp_bytes(mbps(20), from_ms(40)), from_ms(40), 1,
              make_bbr};
  lb.start_all();
  lb.sim().run_until(from_sec(5));
  const auto& bbr = as_bbr(lb.cc(0));
  ASSERT_EQ(bbr.state(), Bbr::State::kProbeBw);
  EXPECT_NEAR(static_cast<double>(bbr.cwnd()),
              2.0 * static_cast<double>(bbr.bdp_estimate()),
              static_cast<double>(bbr.bdp_estimate()) * 0.15);
}

TEST(Bbr, SoloFlowKeepsQueueSmall) {
  // The hallmark of BBR alone: high throughput, ~empty buffer.
  Loopback lb{mbps(20), 10 * bdp_bytes(mbps(20), from_ms(40)), from_ms(40), 1,
              make_bbr};
  lb.start_all();
  lb.link().queue().begin_measurement(0);
  lb.sim().run_until(from_sec(8));
  lb.link().queue().finalize(lb.sim().now());
  const double avg_queue = lb.link().queue().avg_occupied_bytes();
  // Well under one BDP on average (gain cycling drains its own probes).
  EXPECT_LT(avg_queue, 0.8 * static_cast<double>(
                                 bdp_bytes(mbps(20), from_ms(40))));
}

TEST(Bbr, ProbeRttVisitedOnSchedule) {
  Loopback lb{mbps(20), 4 * bdp_bytes(mbps(20), from_ms(40)), from_ms(40), 1,
              make_bbr};
  lb.start_all();
  bool seen_probe_rtt = false;
  lb.sample(from_ms(20), from_sec(13), [&] {
    if (as_bbr(lb.cc(0)).state() == Bbr::State::kProbeRtt) {
      seen_probe_rtt = true;
    }
  });
  lb.sim().run_until(from_sec(13));
  // min-RTT keeps being refreshed by an uncongested path... but the 10 s
  // expiry still triggers ProbeRTT when the estimate goes stale. With a
  // solo flow the queue is near-empty so new minima keep arriving; allow
  // either outcome but require a ProbeRTT once we add self-queueing.
  // Deterministic variant: a second check below with standing queue.
  (void)seen_probe_rtt;

  // Now with a standing queue (two BBR flows inflate each other's RTT):
  Loopback lb2{mbps(20), 4 * bdp_bytes(mbps(20), from_ms(40)), from_ms(40), 2,
               make_bbr};
  lb2.start_all();
  bool probe_rtt2 = false;
  lb2.sample(from_ms(20), from_sec(13), [&] {
    if (as_bbr(lb2.cc(0)).state() == Bbr::State::kProbeRtt) probe_rtt2 = true;
  });
  lb2.sim().run_until(from_sec(13));
  EXPECT_TRUE(probe_rtt2);
}

TEST(Bbr, ProbeRttShrinksCwndToFourPackets) {
  Loopback lb{mbps(20), 4 * bdp_bytes(mbps(20), from_ms(40)), from_ms(40), 2,
              make_bbr};
  lb.start_all();
  Bytes min_cwnd_seen = INT64_MAX;
  lb.sample(from_ms(5), from_sec(13), [&] {
    if (as_bbr(lb.cc(0)).state() == Bbr::State::kProbeRtt) {
      min_cwnd_seen = std::min(min_cwnd_seen, lb.cc(0).cwnd());
    }
  });
  lb.sim().run_until(from_sec(13));
  EXPECT_EQ(min_cwnd_seen, 4 * kDefaultMss);
}

TEST(Bbr, GainCyclingVisitsProbeAndDrainPhases) {
  Loopback lb{mbps(20), 4 * bdp_bytes(mbps(20), from_ms(40)), from_ms(40), 1,
              make_bbr};
  lb.start_all();
  std::set<double> gains;
  lb.sample(from_ms(3), from_sec(6), [&] {
    if (as_bbr(lb.cc(0)).state() == Bbr::State::kProbeBw) {
      gains.insert(as_bbr(lb.cc(0)).pacing_gain());
    }
  });
  lb.sim().run_until(from_sec(6));
  EXPECT_TRUE(gains.count(1.25)) << "never probed up";
  EXPECT_TRUE(gains.count(0.75)) << "never drained";
  EXPECT_TRUE(gains.count(1.0)) << "never cruised";
}

TEST(Bbr, TwoFlowsConvergeToFairShare) {
  Loopback lb{mbps(20), 4 * bdp_bytes(mbps(20), from_ms(40)), from_ms(40), 2,
              make_bbr};
  lb.start_all();
  lb.sim().run_until(from_sec(10));
  const Bytes d0 = lb.sender(0).delivered_bytes();
  const Bytes d1 = lb.sender(1).delivered_bytes();
  lb.sim().run_until(from_sec(30));
  const auto r0 = static_cast<double>(lb.sender(0).delivered_bytes() - d0);
  const auto r1 = static_cast<double>(lb.sender(1).delivered_bytes() - d1);
  EXPECT_NEAR(r0 / (r0 + r1), 0.5, 0.12);
}

TEST(Bbr, LossAgnosticWindowSurvivesCongestionEvents) {
  BbrConfig cfg;
  Bbr bbr{cfg};
  bbr.on_start(0);
  // Synthetic: feed a congestion event and per-packet losses without a
  // recovery flag; the model-driven window must not collapse permanently.
  LossEvent loss;
  loss.inflight = 100 * kDefaultMss;
  bbr.on_congestion_event(loss);
  const Bytes during = bbr.cwnd();
  EXPECT_GE(during, cfg.min_pipe_cwnd);
  // After recovery ends (next ack without in_recovery), cwnd restores.
  AckEvent ev;
  ev.now = from_ms(50);
  ev.rtt = from_ms(40);
  ev.acked_bytes = kDefaultMss;
  ev.delivered = kDefaultMss;
  ev.delivery_rate = mbps(10);
  ev.inflight = 50 * kDefaultMss;
  ev.in_recovery = false;
  bbr.on_ack(ev);
  EXPECT_GE(bbr.cwnd(), during);
}

TEST(Bbr, AblationKnobChangesCap) {
  Loopback lb{mbps(20), 4 * bdp_bytes(mbps(20), from_ms(40)), from_ms(40), 1,
              [](std::size_t) -> CcVariant {
                BbrConfig cfg;
                cfg.cwnd_gain = 3.0;
                return CcVariant{Bbr{cfg}};
              }};
  lb.start_all();
  lb.sim().run_until(from_sec(5));
  const auto& bbr = as_bbr(lb.cc(0));
  EXPECT_NEAR(static_cast<double>(bbr.cwnd()),
              3.0 * static_cast<double>(bbr.bdp_estimate()),
              static_cast<double>(bbr.bdp_estimate()) * 0.2);
}

}  // namespace
}  // namespace bbrnash
