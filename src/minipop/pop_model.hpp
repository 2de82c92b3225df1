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
/// shape, so PopModel memoizes a compact summary of each decomposition per
/// (block shape, ranks per node, distribution, node layout) in a
/// byte-bounded, thread-safe memo. The namelist multipliers and the node
/// speeds are applied after the lookup.

#include <cstddef>
#include <cstdint>
#include <memory>

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
  /// Throws std::invalid_argument when a cost rate is negative or not
  /// finite, or `ref_flops_per_s` is not positive.
  PopModel(const PopGrid& grid, PopCostModel cost = {}, IoModel io = {});

  /// Simulated time of one step on `machine` using all its CPUs as ranks.
  /// `ppn` is taken from the machine's first node group via rank layout.
  /// Throws std::invalid_argument for `ranks_per_node` < 1 and for a
  /// negative or non-finite phase multiplier.
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

  /// The decomposition memo's tables, entries and node layouts together
  /// stay within this many bytes.
  static constexpr std::size_t kMemoBudgetBytes = std::size_t{360} << 10;

  struct MemoStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    std::size_t resident_bytes = 0;  ///< never above kMemoBudgetBytes
  };
  [[nodiscard]] MemoStats stats() const;

  PopModel(const PopModel&) = delete;
  PopModel& operator=(const PopModel&) = delete;
  ~PopModel();

 private:
  struct Memo;

  /// The terms of a step that depend on the decomposition: imbalance,
  /// baroclinic_s and halo_s.
  [[nodiscard]] PopStepReport shape_terms(const simcluster::Machine& machine,
                                          int ranks_per_node, BlockShape block,
                                          Distribution dist,
                                          double phase_mult) const;

  const PopGrid* grid_;
  PopCostModel cost_;
  IoModel io_;
  std::unique_ptr<Memo> memo_;
};

}  // namespace minipop
