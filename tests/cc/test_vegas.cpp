#include "cc/vegas.hpp"

#include <gtest/gtest.h>

#include "cc/reno.hpp"
#include "helpers/loopback.hpp"

namespace bbrnash {
namespace {

using bbrnash::testing::Loopback;

CcVariant make_vegas(std::size_t) {
  return CcVariant{Vegas{}};
}

TEST(Vegas, FillsAnEmptyLink) {
  Loopback lb{mbps(20), 4 * bdp_bytes(mbps(20), from_ms(40)), from_ms(40), 1,
              make_vegas};
  lb.start_all();
  lb.sim().run_until(from_sec(15));
  const double goodput =
      to_mbps(static_cast<double>(lb.sender(0).delivered_bytes()) / 15.0);
  EXPECT_GT(goodput, 16.0);
}

TEST(Vegas, HoldsTinyStandingQueue) {
  Loopback lb{mbps(20), 10 * bdp_bytes(mbps(20), from_ms(40)), from_ms(40), 1,
              make_vegas};
  lb.start_all();
  lb.sim().schedule_at(from_sec(8), [&] {
    lb.link().queue().begin_measurement(lb.sim().now());
  });
  lb.sim().run_until(from_sec(18));
  lb.link().queue().finalize(lb.sim().now());
  // alpha..beta of 2..4 packets: average well under 10 packets.
  EXPECT_LT(lb.link().queue().avg_occupied_bytes(), 10.0 * 1500.0);
}

TEST(Vegas, BaseRttLearned) {
  Loopback lb{mbps(20), 4 * bdp_bytes(mbps(20), from_ms(40)), from_ms(40), 1,
              make_vegas};
  lb.start_all();
  lb.sim().run_until(from_sec(5));
  const auto& vegas = lb.cc(0).get<Vegas>();
  EXPECT_NEAR(to_ms(vegas.base_rtt()), 40.0, 2.0);
}

TEST(Vegas, CedesToReno) {
  // The classic result the related-work games rest on: loss-based Reno
  // starves delay-based Vegas in a shared drop-tail queue.
  Loopback lb{mbps(20), 4 * bdp_bytes(mbps(20), from_ms(40)), from_ms(40), 2,
              [](std::size_t i) -> CcVariant {
                if (i == 0) return CcVariant{Reno{}};
                return CcVariant{Vegas{}};
              }};
  lb.start_all();
  lb.sim().run_until(from_sec(30));
  const auto reno = static_cast<double>(lb.sender(0).delivered_bytes());
  const auto vegas = static_cast<double>(lb.sender(1).delivered_bytes());
  EXPECT_GT(reno, 1.5 * vegas);
}

TEST(Vegas, EstimatorStepsOutsideRounds) {
  Vegas v;
  v.on_start(0);
  const Bytes w0 = v.cwnd();
  // Mid-round acks (prior_delivered below the round target) don't adjust.
  AckEvent ev;
  ev.now = from_ms(50);
  ev.rtt = from_ms(40);
  ev.acked_bytes = kDefaultMss;
  ev.delivered = kDefaultMss;
  ev.prior_delivered = 0;
  v.on_ack(ev);  // first round boundary (next_round_delivered_ starts 0)
  ev.prior_delivered = 0;
  ev.delivered = 2 * kDefaultMss;
  // Now prior_delivered < next_round_delivered: no further action.
  v.on_ack(ev);
  EXPECT_GE(v.cwnd(), w0 / 2);
}

TEST(Vegas, HalvesOnCongestionEvent) {
  Vegas v;
  v.on_start(0);
  const Bytes before = v.cwnd();
  v.on_congestion_event({});
  EXPECT_EQ(v.cwnd(), before / 2);
  EXPECT_FALSE(v.in_slow_start());
}

TEST(Vegas, RtoRestartsSlowStart) {
  Vegas v;
  v.on_start(0);
  v.on_congestion_event({});
  v.on_rto(from_sec(1));
  EXPECT_TRUE(v.in_slow_start());
  EXPECT_EQ(v.cwnd(), 2 * kDefaultMss);
}

TEST(Vegas, FactoryCreatesIt) {
  const CcVariant cc = make_cc_variant(CcKind::kVegas, CcConfig{});
  EXPECT_NO_THROW(static_cast<void>(cc.get<Vegas>()));
  EXPECT_STREQ(to_string(CcKind::kVegas), "vegas");
}

}  // namespace
}  // namespace bbrnash
