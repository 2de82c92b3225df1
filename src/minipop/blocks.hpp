#pragma once

/// \file blocks.hpp
/// POP block decomposition: the grid is carved into bx x by blocks which are
/// assigned to ranks. The block size is the tunable of the paper's Fig. 4
/// experiment (default 180x100). The decomposition determines:
///
///   * load balance — ocean work is quantized in whole blocks; all-land
///     blocks are eliminated (real POP does this), so smaller blocks track
///     coastlines better but cost more halo perimeter and loop overhead;
///   * communication locality — blocks are laid out column-major and ranks
///     node-major, so y-neighbor halos stay on-node exactly when the block
///     column height divides the node's rank count. This is the mechanism
///     behind "no single block size is good for all topologies".

#include <cstdint>
#include <vector>

#include "minipop/grid.hpp"

namespace minipop {

struct BlockShape {
  int bx = 180;
  int by = 100;
};

struct BlockInfo {
  int ix = 0;           ///< block column
  int iy = 0;           ///< block row
  int width = 0;        ///< actual width (edge blocks may be narrower)
  int height = 0;
  std::int64_t ocean_points = 0;
  int rank = -1;        ///< owning rank (-1 for eliminated land blocks)
};

/// Block-to-rank distribution policy (POP's `distribution_type` namelist).
enum class Distribution {
  Cartesian,   ///< equal block counts, contiguous column-major runs (default)
  RakeWork,    ///< contiguous runs balanced by ocean points
  RoundRobin,  ///< deal blocks cyclically (decorrelates coastline)
  Balanced,    ///< least-loaded greedy (space-filling-curve-like balance)
  Auto,        ///< whichever of the above minimizes load imbalance
};

[[nodiscard]] const char* to_string(Distribution d);

class BlockDecomposition {
 public:
  /// Carve `grid` into blocks of `shape` and distribute the ocean blocks
  /// over `nranks` ranks under the given policy. Throws
  /// std::invalid_argument for non-positive block sizes.
  BlockDecomposition(const PopGrid& grid, BlockShape shape, int nranks,
                     Distribution dist = Distribution::Cartesian);

  [[nodiscard]] int nbx() const noexcept { return nbx_; }
  [[nodiscard]] int nby() const noexcept { return nby_; }
  [[nodiscard]] int total_blocks() const noexcept { return nbx_ * nby_; }
  [[nodiscard]] int ocean_blocks() const noexcept { return ocean_blocks_; }
  [[nodiscard]] int nranks() const noexcept { return nranks_; }
  [[nodiscard]] BlockShape shape() const noexcept { return shape_; }

  [[nodiscard]] const std::vector<BlockInfo>& blocks() const noexcept {
    return blocks_;
  }
  [[nodiscard]] const BlockInfo& block(int ix, int iy) const;

  /// Ocean points assigned to each rank.
  [[nodiscard]] std::vector<std::int64_t> ocean_points_per_rank() const;

  /// What the ranks' compute loads come to, from one pass over the blocks.
  struct RankLoads {
    /// *Computed* points per rank: a surviving block computes its full
    /// width x height (land points are masked, not skipped — POP's compute
    /// loops run over whole blocks). This is what the baroclinic update
    /// costs; the gap between computed and ocean points is the land waste
    /// that smaller blocks recover along coastlines.
    std::vector<std::int64_t> computed_points;
    std::vector<int> blocks;        ///< ocean blocks per rank
    std::int64_t ocean_points = 0;  ///< over all ranks

    /// max computed points per rank / mean *ocean* points per rank: combines
    /// load imbalance and land waste into the figure tuning minimizes.
    [[nodiscard]] double inefficiency() const;
  };
  [[nodiscard]] RankLoads rank_loads() const;

  /// rank_loads().computed_points.
  [[nodiscard]] std::vector<std::int64_t> computed_points_per_rank() const;

  /// rank_loads().inefficiency().
  [[nodiscard]] double compute_inefficiency() const;

  /// rank_loads().blocks.
  [[nodiscard]] std::vector<int> blocks_per_rank() const;

  /// max ocean points per rank / mean — load-balance figure of merit.
  [[nodiscard]] double imbalance() const;

  /// Chosen distribution (resolved policy when Auto was requested).
  [[nodiscard]] Distribution distribution() const noexcept { return dist_; }

  /// Halo traffic of one 2-D exchange, split by locality under a node-major
  /// rank layout with `ranks_per_node` ranks per node. Values are grid-point
  /// counts (multiply by bytes/value/level externally). The *_points totals
  /// cover the whole machine; max_rank_points is the heaviest single rank's
  /// traffic — the one that gates a bulk-synchronous exchange.
  struct HaloStats {
    std::int64_t intra_node_points = 0;
    std::int64_t inter_node_points = 0;
    std::int64_t max_rank_intra_points = 0;
    std::int64_t max_rank_inter_points = 0;
  };
  [[nodiscard]] HaloStats halo_stats(int ranks_per_node) const;

 private:
  BlockShape shape_;
  Distribution dist_ = Distribution::Cartesian;
  int nbx_ = 0;
  int nby_ = 0;
  int nranks_ = 0;
  int ocean_blocks_ = 0;
  std::vector<BlockInfo> blocks_;  // index = ix * nby + iy (column-major)
};

}  // namespace minipop
