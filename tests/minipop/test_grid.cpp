#include "minipop/grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

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

// The mask formula as is_ocean evaluated it before the grid bounded the
// field's cosine terms, copied literally: the oracle for every mask cell.
bool oracle_is_ocean(int i, int j, int nx_, int ny_) {
  const double x = 2.0 * M_PI * static_cast<double>(i) / static_cast<double>(nx_);
  const double y = M_PI * (static_cast<double>(j) / static_cast<double>(ny_) - 0.5);
  const double field = 0.55 * std::sin(2.0 * x + 1.3) * std::cos(1.7 * y) +
                       0.45 * std::sin(3.0 * x - 0.7) * std::sin(2.3 * y + 0.4) +
                       0.35 * std::cos(x * 5.0 + y * 2.0) +
                       0.25 * std::cos(7.0 * x - 3.1 * y);
  // Polar caps are land (Antarctica-like band at the south).
  if (j < ny_ / 20) return false;
  return field < 0.55;
}

TEST(PopGridTest, CoarseMaskMatchesThePointFormula) {
  // Every side below is a multiple of the grid's coarse stride (1 under 1200
  // points, 2 at 1200, 3 at 1830, 4 at 2400), so the lattice of stride x
  // stride blocks is the coarse mask itself: a block counts stride^2 points
  // when the point at its centre is ocean and none otherwise. 2400 x 1830
  // has an odd stride, and its polar cap (rows below 91) covers 30 coarse
  // rows and the first point row of the 31st, whose centre is not in it.
  const std::pair<int, int> shapes[] = {{3600, 2400}, {6000, 1200}, {1200, 800},
                                        {100, 100},   {37, 53},     {1, 1},
                                        {2400, 1830}};
  for (const auto& [nx, ny] : shapes) {
    const PopGrid g(nx, ny);
    const int s = std::max(1, std::min(nx, ny) / 600);
    ASSERT_EQ(nx % s, 0);
    ASSERT_EQ(ny % s, 0);
    const int cnx = nx / s;
    const int cny = ny / s;
    const auto lattice = g.ocean_points_lattice(s, s);
    ASSERT_EQ(lattice.size(), static_cast<std::size_t>(cnx) * cny);
    std::int64_t wrong_cells = 0;
    std::int64_t wrong_points = 0;
    for (int ci = 0; ci < cnx; ++ci) {
      for (int cj = 0; cj < cny; ++cj) {
        const int i = ci * s + s / 2;
        const int j = cj * s + s / 2;
        const bool ocean = oracle_is_ocean(i, j, nx, ny);
        const auto cell = lattice[static_cast<std::size_t>(ci) * cny + cj];
        wrong_cells += cell != (ocean ? std::int64_t{s} * s : 0);
        // is_ocean at the sampled point and at the cell's corner.
        wrong_points += g.is_ocean(i, j) != ocean;
        wrong_points +=
            g.is_ocean(ci * s, cj * s) != oracle_is_ocean(ci * s, cj * s, nx, ny);
      }
    }
    EXPECT_EQ(wrong_cells, 0) << nx << "x" << ny;
    EXPECT_EQ(wrong_points, 0) << nx << "x" << ny;
  }
}

TEST(PopGridTest, ThresholdCellsMatchThePointFormula) {
  // Points whose field rounds to within two ulps of 0.55 under glibc's libm
  // on x86-64, found by search. At each, one reassociation of the field
  // flips the verdict: (t1 + t2) + (t3 + t4), ((t1 + t2) + t4) + t3,
  // (t1 + (t2 + t3)) + t4, or the products as 0.55 * (sin * cos). Only the
  // literal order matches the oracle everywhere. With nx >= ny = 5e8 the
  // coarse mask stays near 1200 x 600 cells.
  struct Point {
    int nx;
    int i;
    int j;
  };
  const int ny = 500'000'000;
  for (const auto& p : {Point{519'170'705, 130'665'835, 464'725'297},
                        Point{976'619'428, 23'397'788, 168'538'641},
                        Point{733'803'151, 2'964'843, 309'092'759},
                        Point{512'034'302, 319'006'620, 171'179'069},
                        Point{529'341'536, 19'906'010, 306'452'170},
                        Point{507'730'030, 67'122'564, 323'648'768}}) {
    const PopGrid g(p.nx, ny);
    EXPECT_EQ(g.is_ocean(p.i, p.j), oracle_is_ocean(p.i, p.j, p.nx, ny))
        << p.nx << "x" << ny << " grid, point (" << p.i << ", " << p.j << ")";
  }
}

TEST(PopGridTest, PinnedOceanFractionsAndLatticeSums) {
  // The figures the mask gave before its cosine terms were bounded, printed
  // with %.17g. The weighted sum weights block k by k % 1000 + 1.
  EXPECT_EQ(PopGrid::production().ocean_fraction(), 0.84284629629629626);
  EXPECT_EQ(PopGrid(6000, 1200).ocean_fraction(), 0.842885);
  EXPECT_EQ(PopGrid(1200, 800).ocean_fraction(), 0.84292500000000004);
  EXPECT_EQ(PopGrid(100, 100).ocean_fraction(), 0.84360000000000002);
  EXPECT_EQ(PopGrid(37, 53).ocean_fraction(), 0.85058643549209589);
  EXPECT_EQ(PopGrid(1, 1).ocean_fraction(), 1.0);
  EXPECT_EQ(PopGrid(2400, 1830).ocean_fraction(), 0.84363114754098356);

  struct Pinned {
    int bx;
    int by;
    std::size_t blocks;
    std::int64_t sum;
    std::int64_t weighted;
  };
  const auto g = PopGrid::production();
  for (const auto& p : {Pinned{180, 100, 480, 7282192, 1770893728},
                        Pinned{30, 24, 12000, 7282192, 3650837824},
                        Pinned{7, 5, 247200, 7282192, 3650937524},
                        Pinned{500, 700, 32, 7282192, 108193888}}) {
    const auto lattice = g.ocean_points_lattice(p.bx, p.by);
    std::int64_t sum = 0;
    std::int64_t weighted = 0;
    for (std::size_t k = 0; k < lattice.size(); ++k) {
      sum += lattice[k];
      weighted += static_cast<std::int64_t>(k % 1000 + 1) * lattice[k];
    }
    EXPECT_EQ(lattice.size(), p.blocks) << p.bx << "x" << p.by;
    EXPECT_EQ(sum, p.sum) << p.bx << "x" << p.by;
    EXPECT_EQ(weighted, p.weighted) << p.bx << "x" << p.by;
  }
}

TEST(PopGridTest, EveryMaskBranchIsTakenOnTheProductionGrid) {
  // 900 x 600 coarse cells; the cap is rows j < 120, the first 30 coarse rows.
  // A count moves only if a cosine's last bit moves it across a bound, so
  // the counts are pinned exactly.
  const auto g = PopGrid::production();
  const auto& m = g.mask_stats();
  EXPECT_EQ(m.cap, 30 * 900);
  EXPECT_EQ(m.ocean_bounded, 236'068);
  EXPECT_EQ(m.ocean_one_cos, 139'813);
  EXPECT_EQ(m.land_one_cos, 7'430);
  EXPECT_EQ(m.two_cos, 129'689);
  EXPECT_EQ(m.cap + m.ocean_bounded + m.ocean_one_cos + m.land_one_cos + m.two_cos,
            900 * 600);
  // 406,621 cosines, where the unbounded field took two per cell.
  EXPECT_LT(m.ocean_one_cos + m.land_one_cos + 2 * m.two_cos, 900 * 600);
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

// ocean_points_in over every block of the bx x by lattice, column-major.
std::vector<std::int64_t> per_block(const PopGrid& g, int bx, int by) {
  std::vector<std::int64_t> out;
  for (int i0 = 0; i0 < g.nx(); i0 += bx) {
    for (int j0 = 0; j0 < g.ny(); j0 += by) {
      out.push_back(g.ocean_points_in(i0, std::min(g.nx(), i0 + bx), j0,
                                      std::min(g.ny(), j0 + by)));
    }
  }
  return out;
}

TEST(PopGridTest, LatticeMatchesPerBlockOnFig4Shapes) {
  const auto g = PopGrid::production();
  std::size_t blocks = 0;
  for (int bx = 30; bx <= 720; bx += 6) {
    for (int by = 24; by <= 600; by += 4) {
      const auto lattice = g.ocean_points_lattice(bx, by);
      ASSERT_EQ(lattice, per_block(g, bx, by)) << bx << "x" << by;
      blocks += lattice.size();
    }
  }
  EXPECT_GT(blocks, 3'000'000U);
}

TEST(PopGridTest, StrideOneCountsMatchTheMask) {
  // With coarse stride 1 every rectangle count is an exact sum of the mask,
  // so the stored prefix sums must add back to a brute-force one, on and
  // around the anchor rows they are split at (every 64 rows at 600 columns,
  // every 8 at 5000, none past row 0 on the small grids).
  for (const auto& g : {PopGrid(600, 600), PopGrid(5000, 300), PopGrid(97, 61),
                        PopGrid(1, 7)}) {
    const auto w = static_cast<std::size_t>(g.nx() + 1);
    std::vector<std::int64_t> sum(w * static_cast<std::size_t>(g.ny() + 1), 0);
    for (int j = 0; j < g.ny(); ++j) {
      for (int i = 0; i < g.nx(); ++i) {
        const auto at = [&](int a, int b) { return static_cast<std::size_t>(b) * w + a; };
        sum[at(i + 1, j + 1)] = (g.is_ocean(i, j) ? 1 : 0) + sum[at(i, j + 1)] +
                                sum[at(i + 1, j)] - sum[at(i, j)];
      }
    }
    const auto rect = [&](int i0, int i1, int j0, int j1) {
      const auto at = [&](int a, int b) { return sum[static_cast<std::size_t>(b) * w + a]; };
      return at(i1, j1) - at(i0, j1) - at(i1, j0) + at(i0, j0);
    };
    std::vector<int> xs;
    std::vector<int> ys;
    for (const int c : {0, 1, 7, 8, 9, 15, 16, 17, 60, 61, 63, 64, 65, 96, 97, 127, 128,
                        129, 255, 256, 257, 299, 300, 599, 600, 4999, 5000}) {
      if (c <= g.nx()) xs.push_back(c);
      if (c <= g.ny()) ys.push_back(c);
    }
    for (const int i0 : xs) {
      for (const int i1 : xs) {
        for (const int j0 : ys) {
          for (const int j1 : ys) {
            if (i0 > i1 || j0 > j1) continue;
            ASSERT_EQ(g.ocean_points_in(i0, i1, j0, j1), rect(i0, i1, j0, j1))
                << g.nx() << "x" << g.ny() << " grid [" << i0 << ", " << i1 << ") x ["
                << j0 << ", " << j1 << ")";
          }
        }
      }
    }
  }
}

TEST(PopGridTest, LatticeMatchesPerBlockOnStrideOneGrids) {
  // A grid whose shorter side is under 1200 points keeps every mask point
  // (coarse stride 1), so lattice lines land on whole coarse cells.
  for (const auto& g : {PopGrid(97, 61), PopGrid(600, 600), PopGrid(1, 7)}) {
    for (const int bx : {1, 2, 7, 10, 64, 97, 600, 1000}) {
      for (const int by : {1, 3, 8, 59, 61, 600, 999}) {
        EXPECT_EQ(g.ocean_points_lattice(bx, by), per_block(g, bx, by))
            << g.nx() << "x" << g.ny() << " grid, " << bx << "x" << by << " blocks";
      }
    }
  }
}

TEST(PopGridTest, LatticeMatchesPerBlockOnStrideThreeGrid) {
  // Coarse stride 3: lattice lines fall between coarse cells, at fractions
  // a double cannot hold exactly.
  const PopGrid g(1900, 1800);
  for (const int bx : {7, 30, 100, 301}) {
    for (const int by : {5, 24, 97, 640}) {
      EXPECT_EQ(g.ocean_points_lattice(bx, by), per_block(g, bx, by))
          << bx << "x" << by << " blocks";
    }
  }
}

TEST(PopGridTest, LatticeEdgeBlocksNarrower) {
  // 3600 = 7 * 500 + 100 and 2400 = 3 * 700 + 300: the last column and row
  // are clipped to the grid.
  const auto g = PopGrid::production();
  const auto lattice = g.ocean_points_lattice(500, 700);
  ASSERT_EQ(lattice.size(), 8U * 4U);
  EXPECT_EQ(lattice, per_block(g, 500, 700));
  EXPECT_EQ(lattice.back(), g.ocean_points_in(3500, 3600, 2100, 2400));
}

TEST(PopGridTest, LatticeSingleBlockIsWholeGrid) {
  const auto g = PopGrid::production();
  const std::vector<std::int64_t> whole{g.ocean_points_in(0, 3600, 0, 2400)};
  EXPECT_EQ(g.ocean_points_lattice(3600, 2400), whole);
  EXPECT_EQ(g.ocean_points_lattice(5000, 9000), whole);
}

TEST(PopGridTest, LatticeBadBlockSizeThrows) {
  const auto g = PopGrid(100, 100);
  EXPECT_THROW((void)g.ocean_points_lattice(0, 10), std::invalid_argument);
  EXPECT_THROW((void)g.ocean_points_lattice(10, -1), std::invalid_argument);
}

TEST(PopGridTest, InlineRoundingMatchesLlround) {
  // Halves, the doubles on either side of them, slightly negative cell sums
  // and values past the 32-bit range.
  std::vector<double> xs{0.0, -0.0, 1e-300, -1e-300, 1e-9, -1e-9, 0.25, -0.25};
  const double inf = std::numeric_limits<double>::infinity();
  for (const double k : {0.0, 1.0, 2.0, 7.0, 100.0, 4095.0, 86399.0, 3.0e9, 4.5e15}) {
    for (const double sign : {1.0, -1.0}) {
      const double half = sign * (k + 0.5);
      xs.push_back(half);
      xs.push_back(std::nextafter(half, inf));
      xs.push_back(std::nextafter(half, -inf));
      xs.push_back(sign * k);
      xs.push_back(std::nextafter(sign * k, inf));
      xs.push_back(std::nextafter(sign * k, -inf));
    }
  }
  for (int i = -4000; i <= 4000; ++i) xs.push_back(i / 16.0);
  for (const double x : xs) {
    EXPECT_EQ(minipop::round_half_away(x), std::llround(x)) << std::hexfloat << x;
  }
}

TEST(PopGridTest, BadShapeThrows) {
  EXPECT_THROW(PopGrid(0, 10), std::invalid_argument);
  EXPECT_THROW(PopGrid(10, 10, 0), std::invalid_argument);
  // Stride 1, so 599 x 3.6M coarse cells: more than 32-bit prefix sums hold.
  EXPECT_THROW(PopGrid(599, 3'600'000), std::invalid_argument);
}

}  // namespace
