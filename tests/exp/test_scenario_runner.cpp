#include "exp/scenario_runner.hpp"

#include <gtest/gtest.h>

namespace bbrnash {
namespace {

Scenario small_scenario(int nc, int nb, double buffer_bdp = 3.0) {
  const NetworkParams net = make_params(20, 20, buffer_bdp);
  Scenario s = make_mix_scenario(net, nc, nb);
  s.duration = from_sec(12);
  s.warmup = from_sec(4);
  return s;
}

TEST(ScenarioRunner, RejectsEmptyScenario) {
  Scenario s;
  s.buffer_bytes = 10000;
  EXPECT_THROW(run_scenario(s), std::invalid_argument);
}

TEST(ScenarioRunner, RejectsWarmupBeyondDuration) {
  Scenario s = small_scenario(1, 1);
  s.warmup = s.duration;
  EXPECT_THROW(run_scenario(s), std::invalid_argument);
}

TEST(ScenarioRunner, MakeMixScenarioComposition) {
  const NetworkParams net = make_params(20, 20, 3);
  const Scenario s = make_mix_scenario(net, 3, 2, CcKind::kBbrV2);
  EXPECT_EQ(s.flows.size(), 5u);
  EXPECT_EQ(s.count(CcKind::kCubic), 3);
  EXPECT_EQ(s.count(CcKind::kBbrV2), 2);
  EXPECT_EQ(s.capacity, net.capacity);
  EXPECT_EQ(s.buffer_bytes, net.buffer_bytes);
}

TEST(ScenarioRunner, SingleCubicFlowSaturatesLink) {
  const RunResult r = run_scenario(small_scenario(1, 0));
  ASSERT_EQ(r.flows.size(), 1u);
  EXPECT_GT(r.link_utilization, 0.9);
  EXPECT_NEAR(r.avg_goodput_mbps(CcKind::kCubic), 20.0, 2.5);
}

TEST(ScenarioRunner, SingleBbrFlowSaturatesLink) {
  const RunResult r = run_scenario(small_scenario(0, 1));
  EXPECT_GT(r.avg_goodput_mbps(CcKind::kBbr), 17.0);
}

TEST(ScenarioRunner, GoodputNeverExceedsCapacity) {
  const RunResult r = run_scenario(small_scenario(2, 2));
  EXPECT_LE(r.total_goodput_all_mbps(), 20.0 * 1.02);
}

TEST(ScenarioRunner, QueueDelayBoundedByBufferDrainTime) {
  const Scenario s = small_scenario(2, 2, 4.0);
  const RunResult r = run_scenario(s);
  const double max_delay_ms =
      to_ms(static_cast<TimeNs>(static_cast<double>(s.buffer_bytes) /
                                s.capacity * kNsPerSec));
  EXPECT_LE(r.avg_queue_delay_ms, max_delay_ms + 1e-9);
  EXPECT_GT(r.avg_queue_delay_ms, 0.0);
}

TEST(ScenarioRunner, PerFlowStatsPopulated) {
  const RunResult r = run_scenario(small_scenario(1, 1));
  for (const auto& f : r.flows) {
    EXPECT_GT(f.stats.goodput_bps, 0.0);
    EXPECT_GT(f.stats.avg_rtt_ms, 19.0);  // >= base RTT
    EXPECT_GE(f.stats.max_queue_occupancy_bytes,
              f.stats.min_queue_occupancy_bytes);
    EXPECT_GT(f.stats.avg_inflight_bytes, 0.0);
  }
}

TEST(ScenarioRunner, CubicAggregateBufferTracked) {
  const RunResult r = run_scenario(small_scenario(2, 1));
  EXPECT_GT(r.cubic_buffer_avg, 0.0);
  EXPECT_GE(r.cubic_buffer_max, r.cubic_buffer_min);
  EXPECT_GT(r.noncubic_buffer_avg, 0.0);
}

TEST(ScenarioRunner, DeterministicForSameSeed) {
  Scenario s = small_scenario(1, 1);
  s.seed = 77;
  const RunResult a = run_scenario(s);
  const RunResult b = run_scenario(s);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.flows[i].stats.goodput_bps,
                     b.flows[i].stats.goodput_bps);
    EXPECT_EQ(a.flows[i].stats.retransmits, b.flows[i].stats.retransmits);
  }
  EXPECT_DOUBLE_EQ(a.avg_queue_delay_ms, b.avg_queue_delay_ms);
}

TEST(ScenarioRunner, DifferentSeedsDiffer) {
  Scenario s = small_scenario(2, 2);
  s.seed = 1;
  const RunResult a = run_scenario(s);
  s.seed = 2;
  const RunResult b = run_scenario(s);
  // Throughputs should not be bit-identical across seeds.
  bool any_diff = false;
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    if (a.flows[i].stats.goodput_bps != b.flows[i].stats.goodput_bps) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(ScenarioRunner, MultiRttFlowsSupported) {
  Scenario s;
  const NetworkParams net = make_params(20, 20, 5);
  s.capacity = net.capacity;
  s.buffer_bytes = net.buffer_bytes;
  s.flows.push_back({CcKind::kCubic, from_ms(10)});
  s.flows.push_back({CcKind::kBbr, from_ms(50)});
  s.duration = from_sec(12);
  s.warmup = from_sec(4);
  const RunResult r = run_scenario(s);
  EXPECT_GT(r.flows[0].stats.goodput_bps, 0.0);
  EXPECT_GT(r.flows[1].stats.goodput_bps, 0.0);
  // Base RTT respected per flow.
  EXPECT_GE(r.flows[0].stats.min_rtt_ms, 9.9);
  EXPECT_GE(r.flows[1].stats.min_rtt_ms, 49.9);
  EXPECT_LT(r.flows[0].stats.min_rtt_ms, r.flows[1].stats.min_rtt_ms);
}

TEST(ScenarioValidate, RejectsNonPositiveCoreParameters) {
  const Scenario good = small_scenario(1, 1);
  EXPECT_NO_THROW(good.validate());

  Scenario s = good;
  s.capacity = 0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = good;
  s.buffer_bytes = 0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = good;
  s.mss = 0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = good;
  s.duration = 0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = good;
  s.warmup = -1;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = good;
  s.flows[0].base_rtt = 0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = good;
  s.bbr_cwnd_gain = 0.0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(ScenarioValidate, RejectsMssPastAPacketsWireSize) {
  Scenario s = small_scenario(1, 1);
  s.mss = kMaxWireBytes - kHeaderBytes;
  EXPECT_NO_THROW(s.validate());
  s.mss += 1;
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(ScenarioValidate, RejectsBadImpairmentsAndSchedules) {
  Scenario s = small_scenario(1, 1);
  s.impairments.loss_rate = -0.1;
  EXPECT_THROW(s.validate(), std::invalid_argument);

  s = small_scenario(1, 1);
  s.flows[0].impairments = ImpairmentConfig{};
  s.flows[0].impairments->duplicate_rate = 2.0;
  EXPECT_THROW(s.validate(), std::invalid_argument);

  s = small_scenario(1, 1);
  s.capacity_schedule = {{from_sec(1), 0}};  // zero rate pins the server
  EXPECT_THROW(s.validate(), std::invalid_argument);

  s = small_scenario(1, 1);
  s.capacity_schedule = {{-1, mbps(10)}};
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(ScenarioRunner, AqmNamesRoundTrip) {
  for (const AqmKind k : kAllAqmKinds) {
    const auto parsed = parse_aqm(to_string(k));
    ASSERT_TRUE(parsed.has_value()) << to_string(k);
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_FALSE(parse_aqm("droptial").has_value());
  EXPECT_FALSE(parse_aqm("").has_value());
}

TEST(ScenarioRunner, FlapScheduleShape) {
  const auto sched = make_flap_schedule(from_sec(10), from_sec(2), mbps(100),
                                        mbps(10), from_sec(25));
  // Flaps at t = 8..10 and t = 18..20; t = 28 is beyond `until`.
  ASSERT_EQ(sched.size(), 4u);
  EXPECT_EQ(sched[0].at, from_sec(8));
  EXPECT_EQ(sched[0].rate, mbps(10));
  EXPECT_EQ(sched[1].at, from_sec(10));
  EXPECT_EQ(sched[1].rate, mbps(100));
  EXPECT_EQ(sched[2].at, from_sec(18));
  EXPECT_EQ(sched[3].at, from_sec(20));

  EXPECT_THROW(make_flap_schedule(0, 0, mbps(1), mbps(1), from_sec(1)),
               std::invalid_argument);
  EXPECT_THROW(
      make_flap_schedule(from_sec(1), from_sec(2), mbps(1), mbps(1),
                         from_sec(10)),
      std::invalid_argument);
  EXPECT_THROW(
      make_flap_schedule(from_sec(10), from_sec(1), mbps(1), 0, from_sec(10)),
      std::invalid_argument);
}

TEST(ScenarioRunner, PeakCapacityTracksSchedule) {
  Scenario s = small_scenario(1, 1);
  EXPECT_EQ(s.peak_capacity(), s.capacity);
  s.capacity_schedule = {{from_sec(1), s.capacity / 2},
                         {from_sec(2), s.capacity * 3}};
  EXPECT_EQ(s.peak_capacity(), s.capacity * 3);
}

TEST(ScenarioRunner, RunResultAggregators) {
  RunResult r;
  FlowResult f1;
  f1.cc = CcKind::kCubic;
  f1.stats.goodput_bps = mbps(10);
  FlowResult f2;
  f2.cc = CcKind::kBbr;
  f2.stats.goodput_bps = mbps(30);
  r.flows = {f1, f2};
  EXPECT_DOUBLE_EQ(r.avg_goodput_mbps(CcKind::kCubic), 10.0);
  EXPECT_DOUBLE_EQ(r.avg_goodput_mbps(CcKind::kBbr), 30.0);
  EXPECT_DOUBLE_EQ(r.avg_goodput_mbps(CcKind::kCopa), 0.0);
  EXPECT_DOUBLE_EQ(r.total_goodput_all_mbps(), 40.0);
}

}  // namespace
}  // namespace bbrnash
