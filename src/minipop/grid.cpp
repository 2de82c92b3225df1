#include "minipop/grid.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace minipop {

PopGrid::PopGrid(int nx, int ny, int depth_levels) : nx_(nx), ny_(ny), kz_(depth_levels) {
  if (nx < 1 || ny < 1 || depth_levels < 1) {
    throw std::invalid_argument("PopGrid: bad shape");
  }
  // Precompute a coarse prefix-sum of the mask so rectangle queries are O(1).
  stride_ = std::max(1, std::min(nx_, ny_) / 600);
  cnx_ = (nx_ + stride_ - 1) / stride_;
  cny_ = (ny_ + stride_ - 1) / stride_;
  if (static_cast<std::int64_t>(cnx_) * cny_ >
      std::numeric_limits<std::int32_t>::max()) {
    throw std::invalid_argument("PopGrid: too many coarse cells");
  }
  // Anchor rows as far apart as keeps every delta, at most (rows apart) x
  // cnx_ cells, within 16 bits. Row b of P is row b - 1 plus the running
  // count of mask row b - 1.
  while (anchor_shift_ < 16 &&
         ((std::int64_t{2} << anchor_shift_) - 1) * cnx_ <=
             std::numeric_limits<std::uint16_t>::max()) {
    ++anchor_shift_;
  }
  const auto w = static_cast<std::size_t>(cnx_ + 1);
  anchors_.assign(static_cast<std::size_t>((cny_ >> anchor_shift_) + 1) * w, 0);
  deltas_.assign(static_cast<std::size_t>(cny_ + 1) * w, 0);
  std::vector<std::int64_t> row(w, 0);
  for (int b = 0; b <= cny_; ++b) {
    if (b > 0) {
      const int j = std::min(ny_ - 1, (b - 1) * stride_ + stride_ / 2);
      std::int64_t run = 0;
      for (int ci = 0; ci < cnx_; ++ci) {
        run += is_ocean(std::min(nx_ - 1, ci * stride_ + stride_ / 2), j) ? 1 : 0;
        row[static_cast<std::size_t>(ci) + 1] += run;
      }
    }
    const auto ub = static_cast<std::size_t>(b);
    std::int32_t* anchor = &anchors_[(ub >> anchor_shift_) * w];
    for (std::size_t a = 0; a < w; ++a) {
      if ((b & ((1 << anchor_shift_) - 1)) == 0) {
        anchor[a] = static_cast<std::int32_t>(row[a]);
      }
      deltas_[ub * w + a] = static_cast<std::uint16_t>(row[a] - anchor[a]);
    }
  }
  ocean_fraction_ = static_cast<double>(ocean_points_in(0, nx_, 0, ny_)) /
                    (static_cast<double>(nx_) * static_cast<double>(ny_));
}

PopGrid::CoarseLine PopGrid::coarse_line(int x, int coarse_extent) const {
  const double c = std::clamp(x / static_cast<double>(stride_), 0.0,
                              static_cast<double>(coarse_extent));
  CoarseLine line;
  line.lo = static_cast<int>(c);
  line.hi = std::min(line.lo + 1, coarse_extent);
  line.frac = c - line.lo;
  return line;
}

std::int32_t PopGrid::prefix(int a, int b) const {
  const auto w = static_cast<std::size_t>(cnx_ + 1);
  const auto ua = static_cast<std::size_t>(a);
  const auto ub = static_cast<std::size_t>(b);
  return anchors_[(ub >> anchor_shift_) * w + ua] + deltas_[ub * w + ua];
}

double PopGrid::corner(const CoarseLine& x, const CoarseLine& y) const {
  const auto at = [this](int a, int b) { return static_cast<double>(prefix(a, b)); };
  const double top = at(x.lo, y.lo) * (1 - x.frac) + at(x.hi, y.lo) * x.frac;
  const double bot = at(x.lo, y.hi) * (1 - x.frac) + at(x.hi, y.hi) * x.frac;
  return top * (1 - y.frac) + bot * y.frac;
}

std::int64_t PopGrid::block_points(double c00, double c10, double c01, double c11,
                                   std::int64_t total) const {
  if (total == 0) return 0;
  const double s = stride_;
  const double cells = c11 - c01 - c10 + c00;
  // |cells * s * s| stays near the block's point count, far below 2^53.
  return std::min(total, round_half_away(cells * s * s));
}

bool PopGrid::is_ocean(int i, int j) const {
  if (i < 0 || i >= nx_ || j < 0 || j >= ny_) {
    throw std::out_of_range("PopGrid::is_ocean");
  }
  // Smooth deterministic "continents": a few long-wavelength bumps. Land
  // where the field exceeds a threshold tuned for ~30% land.
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

std::int64_t PopGrid::ocean_points_in(int i0, int i1, int j0, int j1) const {
  if (i0 < 0 || i1 > nx_ || j0 < 0 || j1 > ny_ || i0 > i1 || j0 > j1) {
    throw std::invalid_argument("ocean_points_in: bad rectangle");
  }
  const CoarseLine x0 = coarse_line(i0, cnx_);
  const CoarseLine x1 = coarse_line(i1, cnx_);
  const CoarseLine y0 = coarse_line(j0, cny_);
  const CoarseLine y1 = coarse_line(j1, cny_);
  return block_points(corner(x0, y0), corner(x1, y0), corner(x0, y1), corner(x1, y1),
                      static_cast<std::int64_t>(i1 - i0) * (j1 - j0));
}

std::vector<std::int64_t> PopGrid::ocean_points_lattice(int bx, int by) const {
  if (bx < 1 || by < 1) {
    throw std::invalid_argument("ocean_points_lattice: non-positive block size");
  }
  // Lattice lines 0, b, 2b, ..., clipped to the grid's extent.
  const auto lines = [](int extent, int step) {
    std::vector<int> at(static_cast<std::size_t>((extent - 1) / step + 2));
    for (std::size_t k = 1; k < at.size(); ++k) {
      at[k] = static_cast<int>(
          std::min<std::int64_t>(extent, static_cast<std::int64_t>(k) * step));
    }
    return at;
  };
  const auto xs = lines(nx_, bx);
  const auto ys = lines(ny_, by);
  std::vector<CoarseLine> cols(xs.size());
  for (std::size_t a = 0; a < xs.size(); ++a) cols[a] = coarse_line(xs[a], cnx_);

  // Corner sums along the previous and the current row line, swept in the
  // prefix table's memory order; each block takes the four corners it shares
  // with its neighbours. Blocks are stored column-major.
  const std::size_t nrows = ys.size() - 1;
  std::vector<std::int64_t> out((xs.size() - 1) * nrows);
  std::vector<double> prev(xs.size());
  std::vector<double> cur(xs.size());
  for (std::size_t l = 0; l < ys.size(); ++l) {
    const CoarseLine row = coarse_line(ys[l], cny_);
    for (std::size_t a = 0; a < xs.size(); ++a) cur[a] = corner(cols[a], row);
    if (l > 0) {
      const std::int64_t height = ys[l] - ys[l - 1];
      for (std::size_t a = 1; a < xs.size(); ++a) {
        out[(a - 1) * nrows + (l - 1)] = block_points(
            prev[a - 1], prev[a], cur[a - 1], cur[a], (xs[a] - xs[a - 1]) * height);
      }
    }
    std::swap(prev, cur);
  }
  return out;
}

}  // namespace minipop
