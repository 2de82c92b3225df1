#pragma once

/// \file grid.hpp
/// The POP global ocean grid: nx x ny surface points with a land mask and a
/// fixed number of depth levels. The paper's production case is the
/// 3600 x 2400 (0.1 degree) grid. We have no access to the real bathymetry
/// dataset, so the mask is a deterministic synthetic continent function (the
/// production grid is 84.3% ocean); what the block-size experiment needs
/// from the mask is only that land is *spatially coherent* (whole blocks can
/// be all-land), which the synthetic continents preserve.

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace minipop {

/// Rounds to the nearest integer, halves away from zero, exactly as
/// std::llround does for |x| < 2^53, where the remainder after truncation is
/// exact; inline, unlike the library call.
[[nodiscard]] inline std::int64_t round_half_away(double x) noexcept {
  const auto t = static_cast<std::int64_t>(x);
  const double f = x - static_cast<double>(t);
  return t + (f >= 0.5) - (f <= -0.5);
}

class PopGrid {
 public:
  PopGrid(int nx, int ny, int depth_levels = 40);

  [[nodiscard]] int nx() const noexcept { return nx_; }
  [[nodiscard]] int ny() const noexcept { return ny_; }
  [[nodiscard]] int depth_levels() const noexcept { return kz_; }

  /// True when the point is ocean (computable, deterministic).
  [[nodiscard]] bool is_ocean(int i, int j) const;

  /// Number of ocean points in the rectangle [i0,i1) x [j0,j1), computed
  /// from a precomputed coarse prefix-sum of the mask (O(1) per query; the
  /// block decomposition only needs ocean fractions, not point-exact
  /// counts).
  [[nodiscard]] std::int64_t ocean_points_in(int i0, int i1, int j0, int j1) const;

  /// Ocean points of every block of the bx x by lattice that tiles the grid
  /// from (0, 0), edge blocks clipped to the grid, in column-major order
  /// (index ix * nby + iy). Each count equals ocean_points_in over that
  /// block, bit for bit, but corners shared by neighbouring blocks are
  /// interpolated once.
  [[nodiscard]] std::vector<std::int64_t> ocean_points_lattice(int bx, int by) const;

  /// Whole-grid ocean fraction estimate.
  [[nodiscard]] double ocean_fraction() const noexcept { return ocean_fraction_; }

  /// How the constructor decided the coarse mask's cells. The field's two
  /// cosine terms are bounded before they are evaluated: on the production
  /// grid about half the cells take no cosine and a quarter take both.
  struct MaskStats {
    std::int64_t cap = 0;            // polar-cap rows: land, no trig
    std::int64_t ocean_bounded = 0;  // ocean with both cosines bounded
    std::int64_t ocean_one_cos = 0;  // ocean with the second cosine bounded
    std::int64_t land_one_cos = 0;   // land with the second cosine bounded
    std::int64_t two_cos = 0;        // both cosines evaluated
  };
  [[nodiscard]] const MaskStats& mask_stats() const noexcept { return mask_stats_; }

  /// The paper's production grid.
  [[nodiscard]] static PopGrid production() { return PopGrid(3600, 2400); }

 private:
  /// A grid line's position on the coarse mask, clamped to it: the cell
  /// index below it and the fraction of the way to the next one.
  struct CoarseLine {
    int lo = 0;
    int hi = 0;
    double frac = 0.0;
  };
  [[nodiscard]] CoarseLine coarse_line(int x, int coarse_extent) const;

  /// The coarse mask's prefix sum: ocean cells in columns < a and rows < b,
  /// for a in [0, cnx_] and b in [0, cny_].
  [[nodiscard]] std::int32_t prefix(int a, int b) const;

  /// Bilinear interpolation of the prefix sum where a column line crosses
  /// a row line.
  [[nodiscard]] double corner(const CoarseLine& x, const CoarseLine& y) const;

  /// Ocean points of a block of `total` points from the corner sums at its
  /// (low x, low y), (high x, low y), (low x, high y) and (high x, high y).
  [[nodiscard]] std::int64_t block_points(double c00, double c10, double c01,
                                          double c11, std::int64_t total) const;

  int nx_;
  int ny_;
  int kz_;
  int stride_ = 4;
  int cnx_ = 0;
  int cny_ = 0;
  // The prefix sum P(a, b) in two tables that add back to it exactly:
  // P(a, b0) on each anchor row b0, a multiple of 2^anchor_shift_, and
  // P(a, b) - P(a, b0), the cells of [0, a) x [b0, b), as 16 bits. The
  // anchor rows are as far apart as 16 bits allow: every 64 rows on the
  // production grid, where the tables take 1.1 MB against 2.2 MB for P
  // itself. Entries count coarse cells, so 32 bits suffice (checked at
  // construction).
  int anchor_shift_ = 0;
  std::vector<std::int32_t> anchors_;  // ((cny_ >> anchor_shift_) + 1) x (cnx_ + 1)
  std::vector<std::uint16_t> deltas_;  // (cny_ + 1) x (cnx_ + 1)
  double ocean_fraction_ = 0.0;
  MaskStats mask_stats_;
};

}  // namespace minipop
