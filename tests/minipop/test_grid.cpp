#include "minipop/grid.hpp"

#include <gtest/gtest.h>

namespace {

using minipop::PopGrid;

TEST(PopGridTest, ProductionShape) {
  const auto g = PopGrid::production();
  EXPECT_EQ(g.nx(), 3600);
  EXPECT_EQ(g.ny(), 2400);
  EXPECT_EQ(g.depth_levels(), 40);
}

TEST(PopGridTest, OceanFractionIsEarthLike) {
  const auto g = PopGrid::production();
  const double f = g.ocean_fraction();
  EXPECT_GT(f, 0.6);
  EXPECT_LT(f, 0.95);
}

TEST(PopGridTest, MaskIsDeterministic) {
  const auto a = PopGrid::production();
  const auto b = PopGrid::production();
  for (int i = 0; i < 3600; i += 97) {
    for (int j = 0; j < 2400; j += 83) {
      EXPECT_EQ(a.is_ocean(i, j), b.is_ocean(i, j));
    }
  }
}

TEST(PopGridTest, SouthernCapIsLand) {
  const auto g = PopGrid::production();
  for (int i = 0; i < 3600; i += 100) {
    EXPECT_FALSE(g.is_ocean(i, 0));
  }
}

TEST(PopGridTest, MaskHasBothLandAndOcean) {
  const auto g = PopGrid::production();
  int land = 0;
  int ocean = 0;
  for (int i = 0; i < 3600; i += 60) {
    for (int j = 200; j < 2400; j += 60) {
      (g.is_ocean(i, j) ? ocean : land)++;
    }
  }
  EXPECT_GT(land, 0);
  EXPECT_GT(ocean, 0);
}

TEST(PopGridTest, IsOceanOutOfRangeThrows) {
  const auto g = PopGrid(100, 100);
  EXPECT_THROW((void)g.is_ocean(-1, 0), std::out_of_range);
  EXPECT_THROW((void)g.is_ocean(0, 100), std::out_of_range);
}

TEST(PopGridTest, OceanPointsWholeGridMatchesFraction) {
  const auto g = PopGrid(400, 300);
  const auto points = g.ocean_points_in(0, 400, 0, 300);
  EXPECT_NEAR(static_cast<double>(points) / (400.0 * 300.0), g.ocean_fraction(),
              1e-9);
}

TEST(PopGridTest, OceanPointsAdditiveAcrossSplit) {
  const auto g = PopGrid(1200, 800);
  const auto whole = g.ocean_points_in(0, 1200, 0, 800);
  const auto left = g.ocean_points_in(0, 600, 0, 800);
  const auto right = g.ocean_points_in(600, 1200, 0, 800);
  // Prefix-sum based counts are exactly additive on aligned splits.
  EXPECT_NEAR(static_cast<double>(left + right), static_cast<double>(whole),
              static_cast<double>(whole) * 0.01 + 8);
}

TEST(PopGridTest, OceanPointsEmptyRectangleIsZero) {
  const auto g = PopGrid(100, 100);
  EXPECT_EQ(g.ocean_points_in(10, 10, 0, 50), 0);
}

TEST(PopGridTest, OceanPointsBoundsChecked) {
  const auto g = PopGrid(100, 100);
  EXPECT_THROW((void)g.ocean_points_in(-1, 50, 0, 50), std::invalid_argument);
  EXPECT_THROW((void)g.ocean_points_in(0, 101, 0, 50), std::invalid_argument);
  EXPECT_THROW((void)g.ocean_points_in(50, 10, 0, 50), std::invalid_argument);
}

TEST(PopGridTest, OceanPointsNeverExceedArea) {
  const auto g = PopGrid::production();
  for (int i = 0; i < 3600; i += 500) {
    for (int j = 0; j < 2400; j += 400) {
      const int i1 = std::min(3600, i + 180);
      const int j1 = std::min(2400, j + 100);
      const auto pts = g.ocean_points_in(i, i1, j, j1);
      EXPECT_GE(pts, 0);
      EXPECT_LE(pts, static_cast<std::int64_t>(i1 - i) * (j1 - j));
    }
  }
}

TEST(PopGridTest, BadShapeThrows) {
  EXPECT_THROW(PopGrid(0, 10), std::invalid_argument);
  EXPECT_THROW(PopGrid(10, 10, 0), std::invalid_argument);
  // Stride 1, so 599 x 3.6M coarse cells: more than 32-bit prefix sums hold.
  EXPECT_THROW(PopGrid(599, 3'600'000), std::invalid_argument);
}

}  // namespace
