#include "minipop/grid.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace minipop {

namespace {

// The land mask: land in the polar cap rows j < ny / 20 and wherever the
// field of smooth deterministic "continents" (a few long-wavelength bumps)
//   ((0.55 sin(2x + 1.3) cos(1.7y) + 0.45 sin(3x - 0.7) sin(2.3y + 0.4))
//     + 0.35 cos(5x + 2y)) + 0.25 cos(7x - 3.1y)
// reaches 0.55, with x = 2 pi i / nx and y = pi (j / ny - 0.5). The first two
// terms are products of a column factor and a row factor, each computed once
// per column or row; the last two are bounded before they are evaluated.
constexpr double kLandAt = 0.55;

// Bounds on 0.35 cos(.) and 0.25 cos(.) for any cosine within one ulp of
// [-1, 1]. Rounded multiplication by a positive constant and rounded addition
// are monotone, so t3 <= kT3 and t4 <= kT4 give fl(fl(p + t3) + t4) <=
// fl(fl(p + kT3) + kT4), and t4 >= -kT4 gives fl(q + t4) >= fl(q - kT4): a
// cell decided by a bound gets the same verdict as the full sum.
constexpr double kCosMax = 1.0 + std::numeric_limits<double>::epsilon();
constexpr double kT3 = 0.35 * kCosMax;
constexpr double kT4 = 0.25 * kCosMax;

struct MaskColumn {
  double x5 = 0.0;  // x * 5
  double x7 = 0.0;  // 7 * x
  double a = 0.0;   // 0.55 sin(2x + 1.3)
  double b = 0.0;   // 0.45 sin(3x - 0.7)
};

struct MaskRow {
  bool cap = false;
  double y2 = 0.0;   // y * 2
  double y31 = 0.0;  // 3.1 * y
  double c = 0.0;    // cos(1.7y)
  double d = 0.0;    // sin(2.3y + 0.4)
};

MaskColumn mask_column(int i, int nx) {
  const double x = 2.0 * M_PI * static_cast<double>(i) / static_cast<double>(nx);
  return {x * 5.0, 7.0 * x, 0.55 * std::sin(2.0 * x + 1.3),
          0.45 * std::sin(3.0 * x - 0.7)};
}

MaskRow mask_row(int j, int ny) {
  if (j < ny / 20) return {true, 0.0, 0.0, 0.0, 0.0};
  const double y = M_PI * (static_cast<double>(j) / static_cast<double>(ny) - 0.5);
  return {false, y * 2.0, 3.1 * y, std::cos(1.7 * y), std::sin(2.3 * y + 0.4)};
}

// Where a cell's verdict was reached, in the order of PopGrid::MaskStats.
enum class Verdict : std::uint8_t {
  kCap,
  kOceanBounded,
  kOceanOneCos,
  kLandOneCos,
  kOcean,
  kLand,
};

Verdict mask_cell(const MaskColumn& col, const MaskRow& row) {
  if (row.cap) return Verdict::kCap;
  const double p = col.a * row.c + col.b * row.d;
  if (p + kT3 + kT4 < kLandAt) return Verdict::kOceanBounded;
  const double q = p + 0.35 * std::cos(col.x5 + row.y2);
  if (q + kT4 < kLandAt) return Verdict::kOceanOneCos;
  if (q - kT4 >= kLandAt) return Verdict::kLandOneCos;
  return q + 0.25 * std::cos(col.x7 - row.y31) < kLandAt ? Verdict::kOcean
                                                          : Verdict::kLand;
}

bool is_ocean_verdict(Verdict v) {
  return v == Verdict::kOceanBounded || v == Verdict::kOceanOneCos ||
         v == Verdict::kOcean;
}

}  // namespace

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
  // Each coarse cell samples the mask at its centre, clamped to the grid.
  std::vector<MaskColumn> columns(static_cast<std::size_t>(cnx_));
  for (int ci = 0; ci < cnx_; ++ci) {
    columns[static_cast<std::size_t>(ci)] =
        mask_column(std::min(nx_ - 1, ci * stride_ + stride_ / 2), nx_);
  }
  std::array<std::int64_t, 6> verdicts{};
  std::vector<std::int64_t> row(w, 0);
  for (int b = 0; b <= cny_; ++b) {
    if (b > 0) {
      const MaskRow r =
          mask_row(std::min(ny_ - 1, (b - 1) * stride_ + stride_ / 2), ny_);
      if (r.cap) {
        // All land: the running counts stay as they are.
        verdicts[static_cast<std::size_t>(Verdict::kCap)] += cnx_;
      } else {
        std::int64_t run = 0;
        for (int ci = 0; ci < cnx_; ++ci) {
          const Verdict v = mask_cell(columns[static_cast<std::size_t>(ci)], r);
          ++verdicts[static_cast<std::size_t>(v)];
          run += is_ocean_verdict(v) ? 1 : 0;
          row[static_cast<std::size_t>(ci) + 1] += run;
        }
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
  mask_stats_ = {verdicts[0], verdicts[1], verdicts[2], verdicts[3],
                 verdicts[4] + verdicts[5]};
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
  return is_ocean_verdict(mask_cell(mask_column(i, nx_), mask_row(j, ny_)));
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
