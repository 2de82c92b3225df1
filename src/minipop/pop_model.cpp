#include "minipop/pop_model.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "simcluster/collectives.hpp"

namespace minipop {

PopModel::PopModel(const PopGrid& grid, PopCostModel cost, IoModel io)
    : grid_(&grid), cost_(cost), io_(io) {}

std::shared_ptr<const PopModel::ShapeSummary> PopModel::summary(
    BlockShape block, int nranks, int ranks_per_node, Distribution dist) const {
  const MemoKey key{block.bx, block.by, nranks, ranks_per_node, dist};
  {
    const std::lock_guard lock(memo_mu_);
    for (auto& e : memo_) {
      if (e.summary && e.key == key) {
        e.last_use = ++memo_clock_;
        return e.summary;
      }
    }
  }

  // Built outside the lock, so concurrent misses on other shapes overlap.
  const BlockDecomposition decomp(*grid_, block, nranks, dist);
  auto loads = decomp.rank_loads();
  auto s = std::make_shared<ShapeSummary>();
  s->inefficiency = loads.inefficiency();
  s->computed_points = std::move(loads.computed_points);
  s->blocks = std::move(loads.blocks);
  for (const int b : s->blocks) {
    s->max_blocks = std::max(s->max_blocks, static_cast<double>(b));
  }
  s->halo = decomp.halo_stats(ranks_per_node);

  const std::lock_guard lock(memo_mu_);
  // Reuse the key's entry if a concurrent miss already filled it, else evict
  // the least recently used (empty entries have last_use 0).
  MemoEntry* victim = &memo_.front();
  for (auto& e : memo_) {
    if (e.summary && e.key == key) {
      victim = &e;
      break;
    }
    if (e.last_use < victim->last_use) victim = &e;
  }
  victim->key = key;
  victim->summary = s;
  victim->last_use = ++memo_clock_;
  return s;
}

PopStepReport PopModel::step_time(const simcluster::Machine& machine,
                                  int ranks_per_node, BlockShape block,
                                  const PhaseMultipliers& mult,
                                  Distribution dist) const {
  const int nranks = machine.total_cpus();
  if (ranks_per_node < 1) throw std::invalid_argument("step_time: bad ppn");

  const auto shape = summary(block, nranks, ranks_per_node, dist);
  PopStepReport rep;
  rep.imbalance = shape->inefficiency;

  // --- Baroclinic 3-D update: slowest rank gates the step. Blocks compute
  // their full extent (land is masked inside the loops, not skipped), so the
  // cost driver is *computed* points, not ocean points. ---
  const double phase_mult = cost_.momentum_share * mult.momentum +
                            cost_.tracer_share * mult.tracer +
                            cost_.state_share * mult.state + cost_.other_share;
  const auto& pts = shape->computed_points;
  const auto& blocks = shape->blocks;
  // A node's ranks share one rate, and dividing by a positive constant
  // preserves order, so the node's busiest rank is found in flops and
  // divided once.
  double max_t = 0.0;
  for (const auto& node : machine.nodes()) {
    double max_flops = 0.0;
    for (int r = node.first_rank; r < node.first_rank + node.cpus; ++r) {
      const double flops =
          static_cast<double>(pts[static_cast<std::size_t>(r)]) *
              grid_->depth_levels() * cost_.flops_per_point_level * phase_mult +
          static_cast<double>(blocks[static_cast<std::size_t>(r)]) *
              grid_->depth_levels() * cost_.block_overhead_flops;
      max_flops = std::max(max_flops, flops);
    }
    max_t = std::max(max_t, max_flops / (cost_.ref_flops_per_s * node.speed));
  }
  rep.baroclinic_s = max_t;

  // --- Halo exchange: per-rank average traffic, one exchange per level
  // bundle (POP aggregates levels into one message). ---
  const auto& halo = shape->halo;
  const auto& net = machine.network();
  const double levels = grid_->depth_levels();
  const double ghost = cost_.ghost_width;
  const double to_bytes = cost_.bytes_per_value * levels * ghost;
  // The mean per-rank traffic prices fabric contention (and carries the
  // CPUs-per-node signal: halo that stays inside an SMP node is nearly
  // free); the heaviest rank adds a bulk-synchronous gating term.
  const double avg_intra_bytes =
      to_bytes * static_cast<double>(halo.intra_node_points) / nranks;
  const double avg_inter_bytes =
      to_bytes * static_cast<double>(halo.inter_node_points) / nranks;
  const double max_inter_bytes =
      to_bytes * static_cast<double>(halo.max_rank_inter_points);
  // Each exchange posts ~4 messages per owned block (N/S/E/W).
  const int exchanges = cost_.halo_exchanges_per_step;
  const double msgs = 4.0 * shape->max_blocks;
  rep.halo_s = exchanges * (msgs * net.inter_latency_s +
                            avg_intra_bytes / net.intra_bandwidth_Bps +
                            avg_inter_bytes / net.inter_bandwidth_Bps +
                            0.5 * max_inter_bytes / net.inter_bandwidth_Bps);

  // --- Barotropic solver: fixed iterations, one allreduce each. ---
  const double surf_pts =
      static_cast<double>(grid_->nx()) * grid_->ny() * grid_->ocean_fraction();
  const double baro_compute =
      cost_.barotropic_iterations * surf_pts * cost_.barotropic_flops_per_point /
      (cost_.ref_flops_per_s * machine.min_speed() * nranks);
  const double baro_reduce =
      cost_.barotropic_iterations *
      simcluster::allreduce_time(machine, nranks, cost_.bytes_per_value);
  rep.barotropic_s = baro_compute + baro_reduce;

  // --- Surface forcing (interp parameters act here). ---
  rep.forcing_s = surf_pts * cost_.forcing_flops_per_point * mult.forcing /
                  (cost_.ref_flops_per_s * machine.min_speed() * nranks);

  // --- History I/O, amortized per step. ---
  const double volume =
      surf_pts * cost_.history_fields * cost_.bytes_per_value;
  rep.io_s = io_.write_time(volume, std::max(1, mult.num_iotasks), nranks) /
             cost_.io_interval_steps;

  rep.total_s =
      rep.baroclinic_s + rep.halo_s + rep.barotropic_s + rep.forcing_s + rep.io_s;
  return rep;
}

double PopModel::run_time(const simcluster::Machine& machine, int ranks_per_node,
                          BlockShape block, const PhaseMultipliers& mult,
                          int steps, Distribution dist) const {
  if (steps < 1) throw std::invalid_argument("run_time: steps < 1");
  return steps * step_time(machine, ranks_per_node, block, mult, dist).total_s;
}

}  // namespace minipop
