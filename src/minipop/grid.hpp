#pragma once

/// \file grid.hpp
/// The POP global ocean grid: nx x ny surface points with a land mask and a
/// fixed number of depth levels. The paper's production case is the
/// 3600 x 2400 (0.1 degree) grid. We have no access to the real bathymetry
/// dataset, so the mask is a deterministic synthetic continent function with
/// a comparable ocean fraction (~70%); what the block-size experiment needs
/// from the mask is only that land is *spatially coherent* (whole blocks can
/// be all-land), which the synthetic continents preserve.

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace minipop {

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

  /// Whole-grid ocean fraction estimate.
  [[nodiscard]] double ocean_fraction() const;

  /// The paper's production grid.
  [[nodiscard]] static PopGrid production() { return PopGrid(3600, 2400); }

 private:
  /// Prefix-sum lookup over the coarse mask (stride_ x stride_ cells).
  [[nodiscard]] double coarse_sum(double ci, double cj) const;

  int nx_;
  int ny_;
  int kz_;
  int stride_ = 4;
  int cnx_ = 0;
  int cny_ = 0;
  // (cnx_+1) x (cny_+1), row-major in j. Entries count coarse cells, so 32
  // bits suffice (checked at construction) and halve the largest allocation
  // of a production-grid model.
  std::vector<std::int32_t> prefix_;
};

}  // namespace minipop
