#include "cc/bbrv2.hpp"

#include <gtest/gtest.h>

#include "cc/bbr.hpp"
#include "cc/cubic.hpp"
#include "helpers/loopback.hpp"

namespace bbrnash {
namespace {

using bbrnash::testing::Loopback;

CcVariant make_v2(std::size_t) {
  BbrV2Config cfg;
  cfg.seed = 42;
  return CcVariant{BbrV2{cfg}};
}

const BbrV2& as_v2(const CcVariant& cc) { return cc.get<BbrV2>(); }

TEST(BbrV2, FillsAnEmptyLink) {
  Loopback lb{mbps(20), 4 * bdp_bytes(mbps(20), from_ms(40)), from_ms(40), 1,
              make_v2};
  lb.start_all();
  lb.sim().run_until(from_sec(10));
  const double goodput =
      to_mbps(static_cast<double>(lb.sender(0).delivered_bytes()) / 10.0);
  EXPECT_GT(goodput, 17.0);
}

TEST(BbrV2, ReachesProbeBw) {
  Loopback lb{mbps(20), 4 * bdp_bytes(mbps(20), from_ms(40)), from_ms(40), 1,
              make_v2};
  lb.start_all();
  lb.sim().run_until(from_sec(5));
  EXPECT_EQ(as_v2(lb.cc(0)).state(), BbrV2::State::kProbeBw);
}

TEST(BbrV2, LossEventSetsInflightBounds) {
  BbrV2 v2;
  v2.on_start(0);
  EXPECT_GT(v2.inflight_hi(), from_sec(1));  // effectively unbounded
  LossEvent loss;
  loss.now = from_ms(100);
  loss.inflight = 100 * kDefaultMss;
  loss.lost_bytes = 2 * kDefaultMss;
  v2.on_congestion_event(loss);
  EXPECT_LE(v2.inflight_hi(), 102 * kDefaultMss);
  EXPECT_LT(v2.inflight_lo(), 100 * kDefaultMss);
}

TEST(BbrV2, ShortTermBoundIsBetaOfCwnd) {
  BbrV2Config cfg;
  BbrV2 v2{cfg};
  v2.on_start(0);
  const Bytes cwnd = v2.cwnd();
  LossEvent loss;
  loss.inflight = cwnd;
  v2.on_congestion_event(loss);
  EXPECT_NEAR(static_cast<double>(v2.inflight_lo()),
              cfg.beta * static_cast<double>(cwnd),
              static_cast<double>(kDefaultMss));
}

TEST(BbrV2, CwndRespectsInflightHi) {
  BbrV2 v2;
  v2.on_start(0);
  LossEvent loss;
  loss.inflight = 6 * kDefaultMss;
  v2.on_congestion_event(loss);
  EXPECT_LE(v2.cwnd(), 6 * kDefaultMss);
}

TEST(BbrV2, LessAggressiveThanV1AgainstCubic) {
  // 1 CUBIC + 1 BBRv2, then 1 CUBIC + 1 BBRv1: CUBIC must keep more
  // bandwidth against v2 (the paper's Fig. 11 premise).
  const auto run = [](bool v2_flag) {
    Loopback lb{
        mbps(20), 3 * bdp_bytes(mbps(20), from_ms(40)), from_ms(40), 2,
        [&](std::size_t i) -> CcVariant {
          if (i == 0) return CcVariant{Cubic{}};
          if (v2_flag) {
            BbrV2Config c;
            c.seed = 7;
            return CcVariant{BbrV2{c}};
          }
          BbrConfig c;
          c.seed = 7;
          return CcVariant{Bbr{c}};
        }};
    lb.start_all();
    lb.sim().run_until(from_sec(40));
    return static_cast<double>(lb.sender(0).delivered_bytes());
  };
  const double cubic_vs_v2 = run(true);
  const double cubic_vs_v1 = run(false);
  EXPECT_GT(cubic_vs_v2, cubic_vs_v1 * 0.9);
}

TEST(BbrV2, RtoCollapsesShortTermBound) {
  BbrV2 v2;
  v2.on_start(0);
  v2.on_rto(from_ms(500));
  EXPECT_EQ(v2.cwnd(), BbrV2Config{}.min_pipe_cwnd);
}

}  // namespace
}  // namespace bbrnash
