#include "cc/copa.hpp"

#include <gtest/gtest.h>

#include "cc/cubic.hpp"
#include "helpers/loopback.hpp"

namespace bbrnash {
namespace {

using bbrnash::testing::Loopback;

CcVariant make_copa(std::size_t) {
  return CcVariant{Copa{}};
}

TEST(Copa, FillsAnEmptyLink) {
  Loopback lb{mbps(20), 4 * bdp_bytes(mbps(20), from_ms(40)), from_ms(40), 1,
              make_copa};
  lb.start_all();
  lb.sim().run_until(from_sec(10));
  const double goodput =
      to_mbps(static_cast<double>(lb.sender(0).delivered_bytes()) / 10.0);
  EXPECT_GT(goodput, 15.0);
}

TEST(Copa, KeepsQueueShallow) {
  // delta = 0.5 targets ~2 packets of queue per flow.
  Loopback lb{mbps(20), 10 * bdp_bytes(mbps(20), from_ms(40)), from_ms(40), 1,
              make_copa};
  lb.start_all();
  lb.sim().schedule_at(from_sec(3), [&] {
    lb.link().queue().begin_measurement(lb.sim().now());
  });
  lb.sim().run_until(from_sec(10));
  lb.link().queue().finalize(lb.sim().now());
  EXPECT_LT(lb.link().queue().avg_occupied_bytes(),
            0.5 * static_cast<double>(bdp_bytes(mbps(20), from_ms(40))));
}

TEST(Copa, CedesToCubic) {
  // The paper's §4.2 premise: Copa does not grab a disproportionate share.
  Loopback lb{mbps(20), 3 * bdp_bytes(mbps(20), from_ms(40)), from_ms(40), 2,
              [](std::size_t i) -> CcVariant {
                if (i == 0) return CcVariant{Cubic{}};
                return CcVariant{Copa{}};
              }};
  lb.start_all();
  lb.sim().run_until(from_sec(30));
  const auto cubic = static_cast<double>(lb.sender(0).delivered_bytes());
  const auto copa = static_cast<double>(lb.sender(1).delivered_bytes());
  EXPECT_LT(copa, cubic);
  EXPECT_LT(copa / (copa + cubic), 0.5);
}

TEST(Copa, QueueingDelaySignalComputed) {
  Copa c;
  c.on_start(0);
  AckEvent ev;
  ev.now = from_ms(100);
  ev.rtt = from_ms(40);
  ev.acked_bytes = kDefaultMss;
  c.on_ack(ev);
  EXPECT_EQ(c.queuing_delay(), 0);  // single sample: standing == min
  ev.now = from_ms(140);
  ev.rtt = from_ms(60);
  c.on_ack(ev);
  EXPECT_EQ(c.queuing_delay(), from_ms(20));
}

TEST(Copa, VelocityResetsOnDirectionChange) {
  Loopback lb{mbps(20), 4 * bdp_bytes(mbps(20), from_ms(40)), from_ms(40), 1,
              make_copa};
  lb.start_all();
  lb.sim().run_until(from_sec(10));
  const auto& copa = lb.cc(0).get<Copa>();
  // At steady state Copa oscillates around its target: velocity stays low.
  EXPECT_LE(copa.velocity(), 4.0);
}

TEST(Copa, RtoResetsToSlowStart) {
  Copa c;
  c.on_start(0);
  c.on_rto(from_sec(1));
  EXPECT_EQ(c.cwnd(), CopaConfig{}.min_cwnd);
  EXPECT_DOUBLE_EQ(c.velocity(), 1.0);
}

TEST(Copa, PacingTracksWindow) {
  Loopback lb{mbps(20), 4 * bdp_bytes(mbps(20), from_ms(40)), from_ms(40), 1,
              make_copa};
  lb.start_all();
  lb.sim().run_until(from_sec(5));
  const auto& copa = lb.cc(0).get<Copa>();
  EXPECT_LT(copa.pacing_rate(), kNoPacing);
  EXPECT_GT(copa.pacing_rate(), 0.0);
}

}  // namespace
}  // namespace bbrnash
