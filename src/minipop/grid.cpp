#include "minipop/grid.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

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
  prefix_.assign(static_cast<std::size_t>(cnx_ + 1) * (cny_ + 1), 0);
  for (int cj = 0; cj < cny_; ++cj) {
    for (int ci = 0; ci < cnx_; ++ci) {
      const int i = std::min(nx_ - 1, ci * stride_ + stride_ / 2);
      const int j = std::min(ny_ - 1, cj * stride_ + stride_ / 2);
      const std::int64_t cell = is_ocean(i, j) ? 1 : 0;
      const auto at = [this](int a, int b) -> std::int32_t& {
        return prefix_[static_cast<std::size_t>(b) * (cnx_ + 1) + a];
      };
      // Summed in 64 bits: the two overlapping terms may exceed 32 bits
      // before the subtraction brings the total back under the cell count.
      at(ci + 1, cj + 1) = static_cast<std::int32_t>(cell + at(ci, cj + 1) +
                                                     at(ci + 1, cj) - at(ci, cj));
    }
  }
}

double PopGrid::coarse_sum(double ci, double cj) const {
  // Bilinear interpolation of the prefix sum at fractional coarse coords.
  const double cx = std::clamp(ci, 0.0, static_cast<double>(cnx_));
  const double cy = std::clamp(cj, 0.0, static_cast<double>(cny_));
  const int i0 = static_cast<int>(cx);
  const int j0 = static_cast<int>(cy);
  const int i1 = std::min(i0 + 1, cnx_);
  const int j1 = std::min(j0 + 1, cny_);
  const double fx = cx - i0;
  const double fy = cy - j0;
  const auto at = [this](int a, int b) {
    return static_cast<double>(
        prefix_[static_cast<std::size_t>(b) * (cnx_ + 1) + a]);
  };
  const double top = at(i0, j0) * (1 - fx) + at(i1, j0) * fx;
  const double bot = at(i0, j1) * (1 - fx) + at(i1, j1) * fx;
  return top * (1 - fy) + bot * fy;
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
  const std::int64_t total =
      static_cast<std::int64_t>(i1 - i0) * static_cast<std::int64_t>(j1 - j0);
  if (total == 0) return 0;

  const double s = stride_;
  const double cells = coarse_sum(i1 / s, j1 / s) - coarse_sum(i0 / s, j1 / s) -
                       coarse_sum(i1 / s, j0 / s) + coarse_sum(i0 / s, j0 / s);
  const double points = cells * s * s;
  return std::min<std::int64_t>(total,
                                static_cast<std::int64_t>(std::llround(points)));
}

double PopGrid::ocean_fraction() const {
  return static_cast<double>(ocean_points_in(0, nx_, 0, ny_)) /
         (static_cast<double>(nx_) * static_cast<double>(ny_));
}

}  // namespace minipop
