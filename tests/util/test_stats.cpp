#include "util/stats.hpp"

#include <cmath>

#include <gtest/gtest.h>

namespace bbrnash {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, KnownSample) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance (n-1 denominator) of this classic sample is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, SingleValueHasZeroVariance) {
  RunningStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, ResetClears) {
  RunningStats s;
  s.add(1.0);
  s.add(2.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(RunningStats, NumericallyStableForLargeOffsets) {
  RunningStats s;
  const double offset = 1e9;
  for (const double x : {offset + 1, offset + 2, offset + 3}) s.add(x);
  EXPECT_NEAR(s.mean(), offset + 2, 1e-3);
  EXPECT_NEAR(s.variance(), 1.0, 1e-6);
}

TEST(TimeWeightedAverage, ConstantSignal) {
  TimeWeightedAverage a;
  a.update(0.0, 5.0);
  a.update(10.0, 5.0);
  EXPECT_DOUBLE_EQ(a.average(), 5.0);
  EXPECT_DOUBLE_EQ(a.observed_span(), 10.0);
}

TEST(TimeWeightedAverage, PiecewiseConstantSignal) {
  TimeWeightedAverage a;
  a.update(0.0, 10.0);  // 10 for t in [0, 2)
  a.update(2.0, 0.0);   // 0 for t in [2, 6)
  a.update(6.0, 5.0);   // 5 for t in [6, 10)
  a.update(10.0, 0.0);
  // (10*2 + 0*4 + 5*4) / 10 = 4.
  EXPECT_DOUBLE_EQ(a.average(), 4.0);
}

TEST(TimeWeightedAverage, FirstUpdateOnlyAnchors) {
  TimeWeightedAverage a;
  a.update(5.0, 100.0);
  EXPECT_DOUBLE_EQ(a.average(), 0.0);  // no span observed yet
  a.update(6.0, 0.0);
  EXPECT_DOUBLE_EQ(a.average(), 100.0);
}

TEST(TimeWeightedAverage, IgnoresNonPositiveDt) {
  TimeWeightedAverage a;
  a.update(1.0, 10.0);
  a.update(1.0, 20.0);  // same instant: value replaced, no integration
  a.update(2.0, 0.0);
  EXPECT_DOUBLE_EQ(a.average(), 20.0);
}

TEST(Percentile, EmptyIsZero) { EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0); }

TEST(Percentile, MedianOfOddSample) {
  EXPECT_DOUBLE_EQ(percentile({3, 1, 2}, 0.5), 2.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  // Quartile of {1,2,3,4}: numpy-style linear interpolation gives 1.75.
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4}, 0.25), 1.75);
}

TEST(Percentile, ExtremesAreMinAndMax) {
  EXPECT_DOUBLE_EQ(percentile({5, 1, 9}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({5, 1, 9}, 1.0), 9.0);
}

TEST(Percentile, ClampsQuantile) {
  EXPECT_DOUBLE_EQ(percentile({1, 2}, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2}, 2.0), 2.0);
}

// Small-sample pins: with fewer than 100 samples, p99 falls between the
// top two ranks and must interpolate between them. Truncating the rank
// (idx = size_t(p * (n-1))) would collapse it onto a lower sample.
TEST(Percentile, SingleSampleIsThatSampleAtEveryQuantile) {
  EXPECT_DOUBLE_EQ(percentile({7.5}, 0.0), 7.5);
  EXPECT_DOUBLE_EQ(percentile({7.5}, 0.5), 7.5);
  EXPECT_DOUBLE_EQ(percentile({7.5}, 0.99), 7.5);
  EXPECT_DOUBLE_EQ(percentile({7.5}, 1.0), 7.5);
}

TEST(Percentile, TwoSamplesInterpolateLinearly) {
  EXPECT_DOUBLE_EQ(percentile({10, 20}, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile({20, 10}, 0.5), 15.0);
  EXPECT_DOUBLE_EQ(percentile({10, 20}, 0.99), 19.9);  // truncating gives 10
  EXPECT_DOUBLE_EQ(percentile({10, 20}, 1.0), 20.0);
}

TEST(Percentile, ThreeSamplesHitAndBracketRanks) {
  // pos = q * 2: q=0.5 lands exactly on the middle rank, q=0.25/0.75
  // bracket it, q=0.99 must stay between the top two samples (a
  // truncated rank returns the median for every q in [0.5, 1)).
  EXPECT_DOUBLE_EQ(percentile({30, 10, 20}, 0.5), 20.0);
  EXPECT_DOUBLE_EQ(percentile({30, 10, 20}, 0.25), 15.0);
  EXPECT_DOUBLE_EQ(percentile({30, 10, 20}, 0.75), 25.0);
  EXPECT_DOUBLE_EQ(percentile({30, 10, 20}, 0.99), 29.8);
}

TEST(Percentile, ExactRankBoundariesNeedNoInterpolation) {
  // With 5 samples, q in {0, .25, .5, .75, 1} lands exactly on a rank;
  // the interpolation term must vanish (frac == 0) rather than bleed into
  // the neighbour.
  const std::vector<double> s{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(s, 0.00), 1.0);
  EXPECT_DOUBLE_EQ(percentile(s, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(percentile(s, 0.50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(s, 0.75), 4.0);
  EXPECT_DOUBLE_EQ(percentile(s, 1.00), 5.0);
}

TEST(Percentile, P99NeverIndexesPastTheEnd) {
  // 99 samples: pos = 0.99 * 98 = 97.02 — lo=97, hi=98 (the last valid
  // index). The interpolated value must stay within [sample 98, sample 99].
  std::vector<double> s;
  for (int i = 1; i <= 99; ++i) s.push_back(static_cast<double>(i));
  const double p99 = percentile(s, 0.99);
  EXPECT_GE(p99, 98.0);
  EXPECT_LE(p99, 99.0);
  EXPECT_DOUBLE_EQ(p99, 98.02);
}

TEST(MeanOf, BasicAndEmpty) {
  EXPECT_DOUBLE_EQ(mean_of({1, 2, 3}), 2.0);
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
}

TEST(JainFairness, PerfectlyFair) {
  EXPECT_DOUBLE_EQ(jain_fairness({5, 5, 5, 5}), 1.0);
}

TEST(JainFairness, TotallyUnfair) {
  // One flow hogs everything: index -> 1/n.
  EXPECT_NEAR(jain_fairness({10, 0, 0, 0}), 0.25, 1e-12);
}

TEST(JainFairness, EmptyAndZeroAreFairByConvention) {
  EXPECT_DOUBLE_EQ(jain_fairness({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness({0, 0}), 1.0);
}

}  // namespace
}  // namespace bbrnash
