#include "exp/nash_search.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

namespace bbrnash {
namespace {

NashSearchConfig quick_cfg() {
  NashSearchConfig cfg;
  cfg.trial.duration = from_sec(15);
  cfg.trial.warmup = from_sec(5);
  cfg.trial.trials = 1;
  cfg.tolerance_frac = 0.10;
  return cfg;
}

TEST(NashSearch, PayoffTablesHaveExpectedShape) {
  const NetworkParams net = make_params(20, 20, 3);
  const EmpiricalPayoffs p = measure_payoffs(net, 4, quick_cfg());
  ASSERT_EQ(p.cubic_mbps.size(), 5u);
  ASSERT_EQ(p.other_mbps.size(), 5u);
  EXPECT_DOUBLE_EQ(p.other_mbps[0], 0.0);   // no BBR flows at k=0
  EXPECT_DOUBLE_EQ(p.cubic_mbps[4], 0.0);   // no CUBIC flows at k=n
  EXPECT_GT(p.cubic_mbps[0], 0.0);
  EXPECT_GT(p.other_mbps[4], 0.0);
}

TEST(NashSearch, CrossingAgreesWithEnumerationOnSmallGame) {
  const NetworkParams net = make_params(20, 20, 4);
  const NashSearchConfig cfg = quick_cfg();
  const std::vector<int> enumerated = find_ne_enumerate(net, 4, cfg);
  const int crossing = find_ne_crossing(net, 4, cfg);
  ASSERT_FALSE(enumerated.empty());
  // The crossing NE must be one of (or adjacent to) the enumerated set —
  // adjacency allowed because the two searches use different trial seeds
  // along the way.
  int best_dist = 100;
  for (const int k : enumerated) {
    best_dist = std::min(best_dist, std::abs(k - crossing));
  }
  EXPECT_LE(best_dist, 1);
}

TEST(NashSearch, CrossingRequiresTwoFlows) {
  const NetworkParams net = make_params(20, 20, 3);
  EXPECT_THROW((void)find_ne_crossing(net, 1, quick_cfg()),
               std::invalid_argument);
}

TEST(NashSearch, CellWithZeroCompletedTrialsAbortsWithDiagnostics) {
  const NetworkParams net = make_params(20, 20, 3);
  NashSearchConfig cfg = quick_cfg();
  // One trial, one attempt, and that attempt's seed on the injection list:
  // every cell completes zero trials. The search must surface the failure
  // instead of treating the all-zero averages as 0 Mbps payoffs.
  cfg.trial.guard.max_attempts = 1;
  cfg.trial.guard.inject_failure_seeds = {cfg.trial.seed};
  try {
    (void)measure_payoffs(net, 2, cfg);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("zero trials"), std::string::npos);
    EXPECT_NE(std::string{e.what()}.find("injected failure"),
              std::string::npos);
  }
  EXPECT_THROW((void)find_ne_crossing(net, 2, cfg), std::runtime_error);
}

TEST(NashSearch, ShallowBufferPushesNeTowardBbr) {
  const NetworkParams net_shallow = make_params(20, 20, 1.5);
  const NetworkParams net_deep = make_params(20, 20, 12);
  const int k_shallow = find_ne_crossing(net_shallow, 6, quick_cfg());
  const int k_deep = find_ne_crossing(net_deep, 6, quick_cfg());
  EXPECT_GE(k_shallow, k_deep);
}

TEST(NashSearch, MultiRttProfileValidation) {
  const std::vector<RttGroup> groups = {{from_ms(10), 2}, {from_ms(30), 2}};
  GroupProfile bad;
  bad.cubic_per_group = {1};
  EXPECT_THROW(
      find_multi_rtt_ne(mbps(20), 500000, groups, bad, quick_cfg()),
      std::invalid_argument);
}

TEST(NashSearch, MultiRttBestResponseConverges) {
  const std::vector<RttGroup> groups = {{from_ms(10), 2}, {from_ms(40), 2}};
  GroupProfile start;
  start.cubic_per_group = {1, 1};
  const auto buffer = static_cast<Bytes>(5.0 * mbps(20) * 0.010);
  const MultiRttNe ne =
      find_multi_rtt_ne(mbps(20), buffer, groups, start, quick_cfg());
  EXPECT_TRUE(ne.converged);
  EXPECT_LE(ne.profile.total_cubic(), 4);
  EXPECT_GE(ne.profile.total_cubic(), 0);
  ASSERT_EQ(ne.group_cubic_mbps.size(), 2u);
}

TEST(NashSearch, MultiRttProfileWithZeroCompletedTrialsThrows) {
  const std::vector<RttGroup> groups = {{from_ms(10), 2}, {from_ms(40), 2}};
  GroupProfile start;
  start.cubic_per_group = {1, 1};
  NashSearchConfig cfg = quick_cfg();
  // Every profile's one trial runs with the injected seed and has no retry
  // left: the search must stop with the diagnostics, not read 0 Mbps.
  cfg.trial.guard.max_attempts = 1;
  cfg.trial.guard.inject_failure_seeds = {cfg.trial.seed};
  try {
    (void)find_multi_rtt_ne(mbps(20), 100000, groups, start, cfg);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("(1, 1 CUBIC per group) completed zero trials"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("injected failure"), std::string::npos) << what;
  }
}

TEST(NashSearch, GroupProfileTotals) {
  GroupProfile p;
  p.cubic_per_group = {3, 0, 7};
  EXPECT_EQ(p.total_cubic(), 10);
}

}  // namespace
}  // namespace bbrnash
