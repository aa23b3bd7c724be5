#include <gtest/gtest.h>

#include "cc/cc_variant.hpp"

namespace bbrnash {
namespace {

/// make_cc_variant(kind) holds the concrete class `T`.
template <typename T>
void expect_holds(CcKind kind) {
  const CcVariant cc = make_cc_variant(kind, CcConfig{});
  EXPECT_NO_THROW(static_cast<void>(cc.get<T>())) << to_string(kind);
}

TEST(CcFactory, CreatesEveryKind) {
  expect_holds<Cubic>(CcKind::kCubic);
  expect_holds<Reno>(CcKind::kReno);
  expect_holds<Bbr>(CcKind::kBbr);
  expect_holds<BbrV2>(CcKind::kBbrV2);
  expect_holds<Copa>(CcKind::kCopa);
  expect_holds<Vivace>(CcKind::kVivace);
}

TEST(CcFactory, NamesAreStable) {
  EXPECT_STREQ(to_string(CcKind::kCubic), "cubic");
  EXPECT_STREQ(to_string(CcKind::kReno), "reno");
  EXPECT_STREQ(to_string(CcKind::kBbr), "bbr");
  EXPECT_STREQ(to_string(CcKind::kBbrV2), "bbrv2");
  EXPECT_STREQ(to_string(CcKind::kCopa), "copa");
  EXPECT_STREQ(to_string(CcKind::kVivace), "vivace");
}

TEST(CcFactory, ParsesEveryNameAndNothingElse) {
  for (const CcKind kind : kAllCcKinds) {
    EXPECT_EQ(parse_cc_kind(to_string(kind)), kind) << to_string(kind);
  }
  EXPECT_EQ(parse_cc_kind("vegas"), std::nullopt);
  EXPECT_EQ(parse_cc_kind("BBR"), std::nullopt);
  EXPECT_EQ(parse_cc_kind(""), std::nullopt);
}

TEST(CcFactory, HonoursInitialCwnd) {
  CcConfig cfg;
  cfg.initial_cwnd = 4 * kDefaultMss;
  auto cc = make_cc_variant(CcKind::kCubic, cfg);
  cc.on_start(0);
  EXPECT_EQ(cc.cwnd(), 4 * kDefaultMss);
}

TEST(CcFactory, WindowCcasAreUnpaced) {
  for (const CcKind kind : {CcKind::kCubic, CcKind::kReno}) {
    auto cc = make_cc_variant(kind, CcConfig{});
    cc.on_start(0);
    EXPECT_GE(cc.pacing_rate(), kNoPacing);
  }
}

TEST(CcFactory, RateCcasStartPacedOrPrimeable) {
  // BBR paces once its filters are primed; initially it may burst the IW.
  auto bbr = make_cc_variant(CcKind::kBbr, CcConfig{});
  bbr.on_start(0);
  AckEvent ev;
  ev.now = from_ms(40);
  ev.rtt = from_ms(40);
  ev.acked_bytes = kDefaultMss;
  ev.delivered = kDefaultMss;
  ev.delivery_rate = mbps(10);
  ev.inflight = 5 * kDefaultMss;
  bbr.on_ack(ev);
  EXPECT_LT(bbr.pacing_rate(), kNoPacing);
}

TEST(CcFactory, BbrGainKnobApplies) {
  CcConfig cfg;
  cfg.bbr_cwnd_gain = 2.0;
  auto a = make_cc_variant(CcKind::kBbr, cfg);
  cfg.bbr_cwnd_gain = 3.0;
  auto b = make_cc_variant(CcKind::kBbr, cfg);
  // Feed the same primed state; higher gain must produce a larger target.
  for (CcVariant* cc : {&a, &b}) {
    cc->on_start(0);
    AckEvent ev;
    ev.now = from_ms(40);
    ev.rtt = from_ms(40);
    ev.acked_bytes = kDefaultMss;
    ev.delivered = kDefaultMss;
    ev.delivery_rate = mbps(10);
    ev.inflight = kDefaultMss;
    // Prime filters and push well past startup with many acks.
    for (int i = 0; i < 400; ++i) {
      ev.now += from_ms(10);
      ev.delivered += kDefaultMss;
      ev.prior_delivered = ev.delivered - kDefaultMss;
      cc->on_ack(ev);
    }
  }
  EXPECT_GT(b.cwnd(), a.cwnd());
}

}  // namespace
}  // namespace bbrnash
