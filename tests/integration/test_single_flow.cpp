// Integration: every congestion control, alone on a clean link, must
// achieve high utilization — across capacities, RTTs and buffer depths.
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "exp/scenario_runner.hpp"

namespace bbrnash {
namespace {

struct SoloParam {
  CcKind cc;
  double cap_mbps;
  double rtt_ms;
  double buffer_bdp;
  double min_util;
};

// gtest prints GetParam() into every ctest name; without this it dumps the
// struct's raw bytes, padding included.
void PrintTo(const SoloParam& p, std::ostream* os) {
  *os << "{" << to_string(p.cc) << ", " << p.cap_mbps << " Mbps, " << p.rtt_ms
      << " ms, " << p.buffer_bdp << " BDP, min util " << p.min_util << "}";
}

class SoloFlow : public ::testing::TestWithParam<SoloParam> {};

TEST_P(SoloFlow, SaturatesCleanLink) {
  const SoloParam p = GetParam();
  const NetworkParams net = make_params(p.cap_mbps, p.rtt_ms, p.buffer_bdp);
  Scenario s;
  s.capacity = net.capacity;
  s.buffer_bytes = net.buffer_bytes;
  s.flows.push_back({p.cc, net.base_rtt});
  s.duration = from_sec(20);
  s.warmup = from_sec(8);
  const RunResult r = run_scenario(s);
  EXPECT_GT(r.link_utilization, p.min_util)
      << to_string(p.cc) << " on " << p.cap_mbps << " Mbps, " << p.rtt_ms
      << " ms, " << p.buffer_bdp << " BDP";
}

INSTANTIATE_TEST_SUITE_P(
    AllCcas, SoloFlow,
    ::testing::Values(
        // Loss-based CCAs keep the buffer full: near-perfect utilization.
        SoloParam{CcKind::kCubic, 20, 40, 2, 0.93},
        SoloParam{CcKind::kCubic, 50, 20, 5, 0.93},
        SoloParam{CcKind::kCubic, 20, 80, 2, 0.90},
        SoloParam{CcKind::kReno, 20, 40, 2, 0.93},
        SoloParam{CcKind::kReno, 20, 20, 5, 0.93},
        // BBR runs the pipe slightly under capacity during drain phases.
        SoloParam{CcKind::kBbr, 20, 40, 2, 0.85},
        SoloParam{CcKind::kBbr, 50, 20, 4, 0.85},
        SoloParam{CcKind::kBbr, 20, 80, 4, 0.85},
        SoloParam{CcKind::kBbrV2, 20, 40, 2, 0.85},
        SoloParam{CcKind::kBbrV2, 50, 20, 4, 0.85},
        // Delay-based Copa holds a small queue.
        SoloParam{CcKind::kCopa, 20, 40, 4, 0.80},
        SoloParam{CcKind::kCopa, 50, 20, 4, 0.80},
        // Vivace converges via probing: allow a longer tail.
        SoloParam{CcKind::kVivace, 20, 40, 2, 0.70},
        SoloParam{CcKind::kVivace, 50, 40, 2, 0.70}),
    [](const ::testing::TestParamInfo<SoloParam>& param_info) {
      return std::string{to_string(param_info.param.cc)} + "_" +
             std::to_string(static_cast<int>(param_info.param.cap_mbps)) +
             "mbps_" +
             std::to_string(static_cast<int>(param_info.param.rtt_ms)) +
             "ms_" +
             std::to_string(static_cast<int>(param_info.param.buffer_bdp)) +
             "bdp";
    });

TEST(SoloFlowDetail, CubicSawtoothVisible) {
  // CUBIC alone must cycle: losses happen, the window shrinks by 0.7 and
  // regrows; retransmissions are therefore non-zero but bounded.
  const NetworkParams net = make_params(20, 40, 2);
  Scenario s;
  s.capacity = net.capacity;
  s.buffer_bytes = net.buffer_bytes;
  s.flows.push_back({CcKind::kCubic, net.base_rtt});
  s.duration = from_sec(30);
  s.warmup = from_sec(5);
  const RunResult r = run_scenario(s);
  EXPECT_GT(r.flows[0].stats.retransmits, 0u);
  EXPECT_LT(static_cast<double>(r.flows[0].stats.retransmits) * kDefaultMss,
            0.05 * mbps(20) * 25.0);  // < 5% loss overall
}

TEST(SoloFlowDetail, BbrKeepsRttNearBase) {
  const NetworkParams net = make_params(20, 40, 10);
  Scenario s;
  s.capacity = net.capacity;
  s.buffer_bytes = net.buffer_bytes;
  s.flows.push_back({CcKind::kBbr, net.base_rtt});
  s.duration = from_sec(20);
  s.warmup = from_sec(8);
  const RunResult r = run_scenario(s);
  // Solo BBR: average RTT well below the bloat a loss-based flow causes.
  EXPECT_LT(r.flows[0].stats.avg_rtt_ms, 40.0 * 1.8);
}

TEST(SoloFlowDetail, CubicFillsBufferBbrDoesNot) {
  const NetworkParams net = make_params(20, 40, 6);
  const auto run_kind = [&](CcKind kind) {
    Scenario s;
    s.capacity = net.capacity;
    s.buffer_bytes = net.buffer_bytes;
    s.flows.push_back({kind, net.base_rtt});
    s.duration = from_sec(25);
    s.warmup = from_sec(8);
    return run_scenario(s).avg_queue_bytes;
  };
  EXPECT_GT(run_kind(CcKind::kCubic), 2.0 * run_kind(CcKind::kBbr));
}

}  // namespace
}  // namespace bbrnash
