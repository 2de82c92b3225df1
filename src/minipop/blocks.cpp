#include "minipop/blocks.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace minipop {

const char* to_string(Distribution d) {
  switch (d) {
    case Distribution::Cartesian: return "cartesian";
    case Distribution::RakeWork: return "rake";
    case Distribution::RoundRobin: return "roundrobin";
    case Distribution::Balanced: return "balanced";
    case Distribution::Auto: return "auto";
  }
  return "?";
}

namespace {

/// Rank of each ocean block (in column-major order, with `pts` its ocean
/// points) under one concrete distribution policy.
std::vector<int> assign_blocks(Distribution dist,
                               const std::vector<std::int64_t>& pts, int nranks,
                               std::int64_t total_ocean) {
  const std::size_t n = pts.size();
  const auto ranks = static_cast<std::size_t>(nranks);
  std::vector<int> assign(n);
  switch (dist) {
    case Distribution::Cartesian:
      // Equal block counts per rank (POP "cartesian").
      for (std::size_t pos = 0; pos < n; ++pos) {
        assign[pos] = static_cast<int>(pos * ranks / n);
      }
      break;
    case Distribution::RakeWork: {
      // Equal ocean work per rank (POP "rake"), still contiguous.
      const double target = static_cast<double>(total_ocean) / nranks;
      std::int64_t cum = 0;
      int rank = 0;
      for (std::size_t pos = 0; pos < n; ++pos) {
        const double mid =
            static_cast<double>(cum) + 0.5 * static_cast<double>(pts[pos]);
        while (rank + 1 < nranks && mid >= target * (rank + 1)) ++rank;
        assign[pos] = rank;
        cum += pts[pos];
      }
      break;
    }
    case Distribution::RoundRobin:
      // Round-robin deal (POP "rake across processors") — decorrelates
      // neighboring blocks' ocean content, so multiple small blocks per rank
      // average out the coastline at the cost of halo locality.
      for (std::size_t pos = 0; pos < n; ++pos) {
        assign[pos] = static_cast<int>(pos % ranks);
      }
      break;
    case Distribution::Balanced: {
      // Least-loaded greedy (largest block to the emptiest rank) — the
      // space-filling-curve/balanced option of POP's distribution suite.
      // Balance is near-perfect once ranks hold several blocks, at the price
      // of halo locality (neighbours scatter across ranks).
      std::vector<std::size_t> order(n);
      for (std::size_t i = 0; i < n; ++i) order[i] = i;
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) { return pts[a] > pts[b]; });
      using Load = std::pair<std::int64_t, int>;  // (points, rank)
      std::priority_queue<Load, std::vector<Load>, std::greater<>> heap;
      for (int r = 0; r < nranks; ++r) heap.emplace(0, r);
      for (const std::size_t pos : order) {
        auto [load, r] = heap.top();
        heap.pop();
        assign[pos] = r;
        heap.emplace(load + pts[pos], r);
      }
      break;
    }
    case Distribution::Auto:
      throw std::logic_error("assign_blocks: Auto is not a concrete policy");
  }
  return assign;
}

}  // namespace

BlockDecomposition::BlockDecomposition(const PopGrid& grid, BlockShape shape,
                                       int nranks, Distribution dist)
    : shape_(shape), dist_(dist), nranks_(nranks) {
  if (shape.bx < 1 || shape.by < 1) {
    throw std::invalid_argument("BlockDecomposition: non-positive block size");
  }
  if (nranks < 1) throw std::invalid_argument("BlockDecomposition: nranks < 1");
  nbx_ = (grid.nx() + shape.bx - 1) / shape.bx;
  nby_ = (grid.ny() + shape.by - 1) / shape.by;
  blocks_.reserve(static_cast<std::size_t>(nbx_) * static_cast<std::size_t>(nby_));

  for (int ix = 0; ix < nbx_; ++ix) {
    for (int iy = 0; iy < nby_; ++iy) {
      BlockInfo b;
      b.ix = ix;
      b.iy = iy;
      const int i0 = ix * shape.bx;
      const int j0 = iy * shape.by;
      const int i1 = std::min(grid.nx(), i0 + shape.bx);
      const int j1 = std::min(grid.ny(), j0 + shape.by);
      b.width = i1 - i0;
      b.height = j1 - j0;
      b.ocean_points = grid.ocean_points_in(i0, i1, j0, j1);
      blocks_.push_back(b);
    }
  }

  // Eliminate all-land blocks, then deal the surviving ocean blocks to ranks.
  // Work is quantized in whole blocks, so the residual imbalance is roughly
  // one block's worth of points over the per-rank mean — the mechanism that
  // makes block size a load-balance knob.
  std::vector<std::size_t> ocean_idx;
  std::vector<std::int64_t> ocean_pts;
  std::int64_t total_ocean = 0;
  for (std::size_t k = 0; k < blocks_.size(); ++k) {
    if (blocks_[k].ocean_points > 0) {
      ocean_idx.push_back(k);
      ocean_pts.push_back(blocks_[k].ocean_points);
      total_ocean += blocks_[k].ocean_points;
    }
  }
  ocean_blocks_ = static_cast<int>(ocean_idx.size());
  if (ocean_blocks_ == 0) {
    throw std::invalid_argument("BlockDecomposition: grid is all land");
  }
  // Only the requested assignment is built; Auto builds all four and keeps
  // whichever balances better (POP lets the user pick its distribution; the
  // better one is what a tuned run would use).
  std::vector<int> chosen;
  if (dist_ == Distribution::Auto) {
    const auto imbalance_of = [&](const std::vector<int>& assign) {
      std::vector<std::int64_t> per_rank(static_cast<std::size_t>(nranks_), 0);
      for (std::size_t pos = 0; pos < assign.size(); ++pos) {
        per_rank[static_cast<std::size_t>(assign[pos])] += ocean_pts[pos];
      }
      std::int64_t max_p = 0;
      for (const auto p : per_rank) max_p = std::max(max_p, p);
      return static_cast<double>(max_p) * nranks_ / static_cast<double>(total_ocean);
    };
    chosen = assign_blocks(Distribution::Cartesian, ocean_pts, nranks_, total_ocean);
    double best_imb = imbalance_of(chosen);
    dist_ = Distribution::Cartesian;
    for (const auto kind : {Distribution::RakeWork, Distribution::RoundRobin,
                            Distribution::Balanced}) {
      auto cand = assign_blocks(kind, ocean_pts, nranks_, total_ocean);
      const double imb = imbalance_of(cand);
      if (imb < best_imb - 1e-9) {
        best_imb = imb;
        chosen = std::move(cand);
        dist_ = kind;
      }
    }
  } else {
    chosen = assign_blocks(dist_, ocean_pts, nranks_, total_ocean);
  }
  for (std::size_t pos = 0; pos < ocean_idx.size(); ++pos) {
    blocks_[ocean_idx[pos]].rank = chosen[pos];
  }
}

const BlockInfo& BlockDecomposition::block(int ix, int iy) const {
  if (ix < 0 || ix >= nbx_ || iy < 0 || iy >= nby_) {
    throw std::out_of_range("BlockDecomposition::block");
  }
  return blocks_[static_cast<std::size_t>(ix) * static_cast<std::size_t>(nby_) +
                 static_cast<std::size_t>(iy)];
}

std::vector<std::int64_t> BlockDecomposition::ocean_points_per_rank() const {
  std::vector<std::int64_t> out(static_cast<std::size_t>(nranks_), 0);
  for (const auto& b : blocks_) {
    if (b.rank >= 0) out[static_cast<std::size_t>(b.rank)] += b.ocean_points;
  }
  return out;
}

std::vector<int> BlockDecomposition::blocks_per_rank() const {
  std::vector<int> out(static_cast<std::size_t>(nranks_), 0);
  for (const auto& b : blocks_) {
    if (b.rank >= 0) ++out[static_cast<std::size_t>(b.rank)];
  }
  return out;
}

std::vector<std::int64_t> BlockDecomposition::computed_points_per_rank() const {
  std::vector<std::int64_t> out(static_cast<std::size_t>(nranks_), 0);
  for (const auto& b : blocks_) {
    if (b.rank >= 0) {
      out[static_cast<std::size_t>(b.rank)] +=
          static_cast<std::int64_t>(b.width) * b.height;
    }
  }
  return out;
}

double BlockDecomposition::compute_inefficiency() const {
  const auto computed = computed_points_per_rank();
  std::int64_t max_c = 0;
  for (const auto c : computed) max_c = std::max(max_c, c);
  std::int64_t ocean = 0;
  for (const auto& b : blocks_) {
    if (b.rank >= 0) ocean += b.ocean_points;
  }
  const double mean_ocean = static_cast<double>(ocean) / nranks_;
  return mean_ocean > 0.0 ? static_cast<double>(max_c) / mean_ocean : 1.0;
}

double BlockDecomposition::imbalance() const {
  const auto pts = ocean_points_per_rank();
  std::int64_t max_p = 0;
  std::int64_t sum_p = 0;
  for (const auto p : pts) {
    max_p = std::max(max_p, p);
    sum_p += p;
  }
  const double mean = static_cast<double>(sum_p) / static_cast<double>(pts.size());
  return mean > 0.0 ? static_cast<double>(max_p) / mean : 1.0;
}

BlockDecomposition::HaloStats
BlockDecomposition::halo_stats(int ranks_per_node) const {
  if (ranks_per_node < 1) throw std::invalid_argument("halo_stats: bad ppn");
  HaloStats stats;
  const auto node_of = [ranks_per_node](int rank) { return rank / ranks_per_node; };
  std::vector<std::int64_t> rank_intra(static_cast<std::size_t>(nranks_), 0);
  std::vector<std::int64_t> rank_inter(static_cast<std::size_t>(nranks_), 0);

  const auto account = [&](int rank_a, int rank_b, std::int64_t points) {
    if (node_of(rank_a) == node_of(rank_b)) {
      stats.intra_node_points += 2 * points;
      rank_intra[static_cast<std::size_t>(rank_a)] += points;
      rank_intra[static_cast<std::size_t>(rank_b)] += points;
    } else {
      stats.inter_node_points += 2 * points;
      rank_inter[static_cast<std::size_t>(rank_a)] += points;
      rank_inter[static_cast<std::size_t>(rank_b)] += points;
    }
  };

  for (const auto& b : blocks_) {
    if (b.rank < 0) continue;
    // East neighbor (x direction): exchange a column of `height` points.
    if (b.ix + 1 < nbx_) {
      const auto& e = block(b.ix + 1, b.iy);
      if (e.rank >= 0 && e.rank != b.rank) account(b.rank, e.rank, b.height);
    }
    // North neighbor (y direction): exchange a row of `width` points.
    if (b.iy + 1 < nby_) {
      const auto& n = block(b.ix, b.iy + 1);
      if (n.rank >= 0 && n.rank != b.rank) account(b.rank, n.rank, b.width);
    }
  }
  for (int r = 0; r < nranks_; ++r) {
    stats.max_rank_intra_points = std::max(
        stats.max_rank_intra_points, rank_intra[static_cast<std::size_t>(r)]);
    stats.max_rank_inter_points = std::max(
        stats.max_rank_inter_points, rank_inter[static_cast<std::size_t>(r)]);
  }
  return stats;
}

}  // namespace minipop
