#include "util/filters.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace bbrnash {
namespace {

TEST(WindowedFilter, EmptyReturnsDefault) {
  WindowedFilter<double> f{FilterKind::kMax, 100, -1.0};
  EXPECT_TRUE(f.empty());
  EXPECT_DOUBLE_EQ(f.best(), -1.0);
  EXPECT_EQ(f.best_time(), kTimeNone);
}

TEST(WindowedFilter, TracksMaxWithinWindow) {
  WindowedFilter<double> f{FilterKind::kMax, 100, 0.0};
  f.update(0, 5);
  f.update(10, 3);
  f.update(20, 8);
  f.update(30, 1);
  EXPECT_DOUBLE_EQ(f.best(), 8.0);
  EXPECT_EQ(f.best_time(), 20);
}

TEST(WindowedFilter, ExpiresOldMaximum) {
  WindowedFilter<double> f{FilterKind::kMax, 100, 0.0};
  f.update(0, 9);
  f.update(50, 4);
  f.update(101, 2);  // t=0 sample now out of window
  EXPECT_DOUBLE_EQ(f.best(), 4.0);
  f.update(151, 1);  // t=50 out too
  EXPECT_DOUBLE_EQ(f.best(), 2.0);
}

TEST(WindowedFilter, AdvanceExpiresWithoutSample) {
  WindowedFilter<double> f{FilterKind::kMax, 100, -1.0};
  f.update(0, 9);
  f.advance(200);
  EXPECT_TRUE(f.empty());
  EXPECT_DOUBLE_EQ(f.best(), -1.0);
}

TEST(WindowedFilter, MinVariantTracksMinimum) {
  WindowedFilter<TimeNs> f{FilterKind::kMin, from_sec(10), kTimeInf};
  f.update(from_sec(1), from_ms(50));
  f.update(from_sec(2), from_ms(40));
  f.update(from_sec(3), from_ms(60));
  EXPECT_EQ(f.best(), from_ms(40));
  // Minimum expires after its window passes.
  f.update(from_sec(12) + 1, from_ms(55));
  EXPECT_EQ(f.best(), from_ms(55));
}

TEST(WindowedFilter, EqualValuesKeepNewest) {
  // A new equal sample replaces the old so the window extends.
  WindowedFilter<double> f{FilterKind::kMax, 100, 0.0};
  f.update(0, 5);
  f.update(90, 5);
  f.update(150, 1);  // t=0 expired, but the t=90 five remains
  EXPECT_DOUBLE_EQ(f.best(), 5.0);
}

TEST(WindowedFilter, SetWindowShrinksRetroactively) {
  WindowedFilter<double> f{FilterKind::kMax, 1000, 0.0};
  f.update(0, 9);
  f.update(500, 5);
  f.advance(600);
  f.set_window(100);
  EXPECT_DOUBLE_EQ(f.best(), 5.0);
}

TEST(WindowedFilter, ResetEmpties) {
  WindowedFilter<double> f{FilterKind::kMax, 100, 0.0};
  f.update(0, 9);
  f.reset();
  EXPECT_TRUE(f.empty());
}

// Property sweep: the exact filter agrees with a brute-force recomputation
// over random sample streams.
struct FilterSweepParam {
  FilterKind kind;
  TimeNs window;
  std::uint64_t seed;
};

class WindowedFilterProperty
    : public ::testing::TestWithParam<FilterSweepParam> {};

TEST_P(WindowedFilterProperty, MatchesBruteForce) {
  const auto p = GetParam();
  WindowedFilter<double> f{p.kind, p.window, -1e18};
  Rng rng{p.seed};

  std::vector<std::pair<TimeNs, double>> samples;
  TimeNs now = 0;
  for (int i = 0; i < 500; ++i) {
    now += static_cast<TimeNs>(rng.next_below(40));
    const double v = rng.uniform(0, 1000);
    samples.emplace_back(now, v);
    f.update(now, v);

    double best = -1e18;
    bool any = false;
    for (const auto& [t, x] : samples) {
      if (t + p.window < now) continue;
      if (!any) {
        best = x;
        any = true;
      } else if (p.kind == FilterKind::kMax ? x > best : x < best) {
        best = x;
      }
    }
    ASSERT_TRUE(any);
    ASSERT_DOUBLE_EQ(f.best(), best) << "at step " << i;
  }
}

// The listed test names print each case's raw bytes, padding included.
// Cases built as stack temporaries carried stack garbage in that padding,
// so the names changed from build to build; cases in static storage have
// zeroed padding and the names are stable.
constexpr FilterSweepParam kFilterSweepCases[] = {
    {FilterKind::kMax, 100, 1},  {FilterKind::kMax, 37, 2},
    {FilterKind::kMin, 100, 3},  {FilterKind::kMin, 5, 4},
    {FilterKind::kMax, 1000, 5}, {FilterKind::kMin, 1, 6}};

INSTANTIATE_TEST_SUITE_P(Sweep, WindowedFilterProperty,
                         ::testing::ValuesIn(kFilterSweepCases));

TEST(RoundMaxFilter, EmptyUntilFirstUpdate) {
  RoundMaxFilter f{10};
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.best(), 0.0);
  f.update(3, 7.0);
  EXPECT_FALSE(f.empty());
  EXPECT_EQ(f.best(), 7.0);
}

TEST(RoundMaxFilter, RejectsNegativeWindow) {
  EXPECT_THROW(RoundMaxFilter{-1}, std::invalid_argument);
}

TEST(RoundMaxFilter, ExpiresWholeRounds) {
  RoundMaxFilter f{2};
  f.update(0, 9);
  f.update(1, 4);
  f.update(1, 5);
  f.update(2, 1);
  EXPECT_EQ(f.best(), 9.0);  // rounds 0..2 are in the window
  f.update(3, 2);
  EXPECT_EQ(f.best(), 5.0);  // round 0 expired; round 1's max was 5
  f.update(9, 3);
  EXPECT_EQ(f.best(), 3.0);  // a jump past the window leaves only round 9
}

// Feeds RoundMaxFilter and the exact WindowedFilter the same stream of
// non-decreasing rounds, each step advancing the round by a gap drawn from
// `gaps`, and requires the same best()/empty() after every update. Values
// come from `levels` integer levels (few levels make equal maxima common),
// or are uniform when `levels` is 0.
void expect_same_as_windowed_filter(int window, std::uint64_t seed,
                                    const std::vector<std::uint64_t>& gaps,
                                    std::uint64_t levels) {
  RoundMaxFilter fast{window};
  WindowedFilter<double> exact{FilterKind::kMax, window, 0.0};
  Rng rng{seed};
  std::uint64_t round = 0;
  for (int i = 0; i < 3000; ++i) {
    round += gaps[rng.next_below(gaps.size())];
    const double v = levels == 0
                         ? rng.uniform(0, 1000)
                         : static_cast<double>(rng.next_below(levels));
    fast.update(round, v);
    exact.update(static_cast<TimeNs>(round), v);
    ASSERT_EQ(fast.empty(), exact.empty()) << "at step " << i;
    ASSERT_EQ(fast.best(), exact.best())
        << "window " << window << " seed " << seed << " step " << i
        << " round " << round;
  }
}

TEST(RoundMaxFilter, MatchesWindowedFilterOnSameRoundBursts) {
  for (const int window : {0, 1, 10}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      expect_same_as_windowed_filter(window, seed, {0, 0, 0, 0, 0, 0, 1}, 0);
    }
  }
}

TEST(RoundMaxFilter, MatchesWindowedFilterAcrossGapsWiderThanWindow) {
  for (const int window : {0, 1, 10}) {
    const auto w = static_cast<std::uint64_t>(window);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      expect_same_as_windowed_filter(
          window, seed, {0, 1, 1, w, w + 1, w + 2, 2 * w + 3, 40}, 0);
    }
  }
}

TEST(RoundMaxFilter, MatchesWindowedFilterOnEqualMaxima) {
  for (const int window : {0, 1, 10}) {
    const auto w = static_cast<std::uint64_t>(window);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      expect_same_as_windowed_filter(window, seed, {0, 0, 1, 1, 2, w + 1}, 3);
    }
  }
}

}  // namespace
}  // namespace bbrnash
