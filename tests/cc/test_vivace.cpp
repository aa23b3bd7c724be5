#include "cc/vivace.hpp"

#include <gtest/gtest.h>

#include "helpers/loopback.hpp"

namespace bbrnash {
namespace {

using bbrnash::testing::Loopback;

CcVariant make_vivace(std::size_t) {
  return CcVariant{Vivace{}};
}

TEST(Vivace, RampsToLinkRateAlone) {
  Loopback lb{mbps(50), 2 * bdp_bytes(mbps(50), from_ms(40)), from_ms(40), 1,
              make_vivace};
  lb.start_all();
  lb.sim().run_until(from_sec(20));
  const Bytes at_20s = lb.sender(0).delivered_bytes();
  lb.sim().run_until(from_sec(30));
  const double goodput =
      to_mbps(static_cast<double>(lb.sender(0).delivered_bytes() - at_20s) /
              10.0);
  EXPECT_GT(goodput, 40.0);
}

TEST(Vivace, TwoFlowsShareReasonably) {
  Loopback lb{mbps(50), 2 * bdp_bytes(mbps(50), from_ms(40)), from_ms(40), 2,
              make_vivace};
  lb.start_all();
  lb.sim().run_until(from_sec(15));
  const Bytes a0 = lb.sender(0).delivered_bytes();
  const Bytes b0 = lb.sender(1).delivered_bytes();
  lb.sim().run_until(from_sec(45));
  const auto a = static_cast<double>(lb.sender(0).delivered_bytes() - a0);
  const auto b = static_cast<double>(lb.sender(1).delivered_bytes() - b0);
  const double share = a / (a + b);
  EXPECT_GT(share, 0.2);
  EXPECT_LT(share, 0.8);
}

TEST(Vivace, RateFloorHolds) {
  Vivace v;
  v.on_start(0);
  for (int i = 0; i < 20; ++i) v.on_rto(from_sec(i + 1));
  EXPECT_GE(v.rate_mbps(), VivaceConfig{}.min_rate_mbps);
}

TEST(Vivace, CwndFloorKeepsLossDetectionViable) {
  Vivace v;
  v.on_start(0);
  for (int i = 0; i < 20; ++i) v.on_rto(from_sec(i + 1));
  EXPECT_GE(v.cwnd(), 8 * kDefaultMss);
}

TEST(Vivace, PacingFollowsRate) {
  Vivace v;
  v.on_start(0);
  const double r = v.rate_mbps();
  EXPECT_NEAR(to_mbps(v.pacing_rate()), r, r * 0.01);
}

TEST(Vivace, UtilizationHighUnderSelfCompetition) {
  Loopback lb{mbps(50), 2 * bdp_bytes(mbps(50), from_ms(40)), from_ms(40), 3,
              make_vivace};
  lb.start_all();
  lb.sim().run_until(from_sec(30));
  Bytes total = 0;
  for (int i = 0; i < 3; ++i) total += lb.sender(i).delivered_bytes();
  // >= 70% of the link over the whole run including convergence.
  EXPECT_GT(static_cast<double>(total), 0.7 * mbps(50) * 30.0);
}

}  // namespace
}  // namespace bbrnash
