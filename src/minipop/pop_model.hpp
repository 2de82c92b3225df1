#pragma once

/// \file pop_model.hpp
/// End-to-end simulated step time for the POP ocean model, composing the
/// grid/block decomposition, the runtime-parameter multipliers, the I/O
/// model and a Machine. One simulated "step" covers:
///
///   baroclinic 3-D update  — per-rank ocean-point work (momentum + tracer +
///                            equation-of-state shares scaled by the tuned
///                            multipliers) + per-block loop overhead
///   2-D halo exchange      — block-perimeter traffic split intra/inter node
///                            by the block->rank->node layout
///   barotropic 2-D solver  — fixed iteration count, one global reduction
///                            per iteration (this is POP's scaling bottleneck)
///   surface forcing        — interpolation work scaled by the interp params
///   history I/O            — amortized per step via IoModel
///
/// The knobs are exactly the paper's: block size (Fig. 4), node topology
/// (CPUs per node), and the namelist parameters (Tables I/II).
///
/// A search changes the namelist parameters far more often than the block
/// shape, so PopModel memoizes what step_time reads from a decomposition per
/// (block shape, ranks, ranks per node, distribution) in a small fixed-size,
/// thread-safe memo. Machine speeds are applied after the lookup.

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "minipop/blocks.hpp"
#include "minipop/grid.hpp"
#include "minipop/io_model.hpp"
#include "minipop/pop_params.hpp"
#include "simcluster/machine.hpp"

namespace minipop {

struct PopCostModel {
  double ref_flops_per_s = 1.5e9;
  double flops_per_point_level = 130.0;  ///< baroclinic work per 3-D point
  double momentum_share = 0.25;
  double tracer_share = 0.30;
  double state_share = 0.12;
  double other_share = 0.33;             ///< advection/metrics, untunable
  double block_overhead_flops = 3.0e4;   ///< per block per level per step
  int barotropic_iterations = 30;
  double barotropic_flops_per_point = 14.0;
  double forcing_flops_per_point = 24.0;  ///< surface points only
  double bytes_per_value = 8.0;
  int halo_exchanges_per_step = 24;       ///< momentum + tracers x substeps
  int ghost_width = 2;                    ///< halo depth in grid points
  double history_fields = 5.0;            ///< surface fields per snapshot
  int io_interval_steps = 1024;           ///< snapshots amortized over steps
};

struct PopStepReport {
  double total_s = 0.0;
  double baroclinic_s = 0.0;
  double halo_s = 0.0;
  double barotropic_s = 0.0;
  double forcing_s = 0.0;
  double io_s = 0.0;
  double imbalance = 1.0;
};

class PopModel {
 public:
  PopModel(const PopGrid& grid, PopCostModel cost = {}, IoModel io = {});

  /// Simulated time of one step on `machine` using all its CPUs as ranks.
  /// `ppn` is taken from the machine's first node group via rank layout.
  [[nodiscard]] PopStepReport step_time(
      const simcluster::Machine& machine, int ranks_per_node, BlockShape block,
      const PhaseMultipliers& mult,
      Distribution dist = Distribution::Cartesian) const;

  /// Simulated time of a run of `steps` steps.
  [[nodiscard]] double run_time(const simcluster::Machine& machine,
                                int ranks_per_node, BlockShape block,
                                const PhaseMultipliers& mult, int steps,
                                Distribution dist = Distribution::Cartesian) const;

  [[nodiscard]] const PopGrid& grid() const noexcept { return *grid_; }
  [[nodiscard]] const PopCostModel& cost() const noexcept { return cost_; }
  [[nodiscard]] const IoModel& io() const noexcept { return io_; }

  /// The decomposition memo holds this many shapes and evicts the least
  /// recently used one.
  static constexpr std::size_t kMemoEntries = 64;

 private:
  /// What step_time reads from one decomposition; independent of the
  /// machine's CPU speeds and of the namelist parameters.
  struct ShapeSummary {
    double inefficiency = 1.0;
    std::vector<std::int64_t> computed_points;  ///< per rank
    std::vector<int> blocks;                    ///< per rank
    double max_blocks = 0.0;
    BlockDecomposition::HaloStats halo;
  };

  struct MemoKey {
    int bx, by, nranks, ranks_per_node;
    Distribution dist;
    bool operator==(const MemoKey&) const = default;
  };

  struct MemoEntry {
    MemoKey key{};
    std::shared_ptr<const ShapeSummary> summary;
    std::uint64_t last_use = 0;
  };

  [[nodiscard]] std::shared_ptr<const ShapeSummary> summary(
      BlockShape block, int nranks, int ranks_per_node, Distribution dist) const;

  const PopGrid* grid_;
  PopCostModel cost_;
  IoModel io_;
  // Scanned linearly under one mutex, which makes PopModel neither copyable
  // nor movable.
  mutable std::mutex memo_mu_;
  mutable std::array<MemoEntry, kMemoEntries> memo_{};
  mutable std::uint64_t memo_clock_ = 0;
};

}  // namespace minipop
