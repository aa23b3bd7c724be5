#include "util/math.hpp"

#include <cmath>

#include <gtest/gtest.h>

namespace bbrnash {
namespace {

TEST(FindRootBisect, FindsSimpleLinearRoot) {
  const auto root = find_root_bisect([](double x) { return x - 3.0; }, 0, 10);
  ASSERT_TRUE(root.has_value());
  EXPECT_NEAR(*root, 3.0, 1e-8);
}

TEST(FindRootBisect, FindsQuadraticRootInsideBracket) {
  const auto root =
      find_root_bisect([](double x) { return x * x - 2.0; }, 0, 2);
  ASSERT_TRUE(root.has_value());
  EXPECT_NEAR(*root, std::sqrt(2.0), 1e-8);
}

TEST(FindRootBisect, AcceptsReversedBracket) {
  const auto root = find_root_bisect([](double x) { return x - 3.0; }, 10, 0);
  ASSERT_TRUE(root.has_value());
  EXPECT_NEAR(*root, 3.0, 1e-8);
}

TEST(FindRootBisect, ReturnsEndpointWhenRootAtBoundary) {
  const auto at_lo = find_root_bisect([](double x) { return x; }, 0, 5);
  ASSERT_TRUE(at_lo.has_value());
  EXPECT_DOUBLE_EQ(*at_lo, 0.0);

  const auto at_hi = find_root_bisect([](double x) { return x - 5.0; }, 0, 5);
  ASSERT_TRUE(at_hi.has_value());
  EXPECT_DOUBLE_EQ(*at_hi, 5.0);
}

TEST(FindRootBisect, RejectsNonStraddlingBracket) {
  EXPECT_FALSE(
      find_root_bisect([](double x) { return x + 1.0; }, 0, 5).has_value());
  EXPECT_FALSE(
      find_root_bisect([](double x) { return -x - 1.0; }, 0, 5).has_value());
}

TEST(FindRootBisect, HonoursTolerance) {
  RootOptions opts;
  opts.tolerance = 1e-3;
  const auto root =
      find_root_bisect([](double x) { return x - 1.0 / 3.0; }, 0, 1, opts);
  ASSERT_TRUE(root.has_value());
  EXPECT_NEAR(*root, 1.0 / 3.0, 1e-3);
}

TEST(FindRootBisect, SteepFunctionStillConverges) {
  const auto root = find_root_bisect(
      [](double x) { return std::exp(30 * x) - std::exp(15.0); }, 0, 1);
  ASSERT_TRUE(root.has_value());
  EXPECT_NEAR(*root, 0.5, 1e-7);
}

}  // namespace
}  // namespace bbrnash
