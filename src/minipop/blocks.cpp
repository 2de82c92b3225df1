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
    case Distribution::Cartesian: {
      // Equal block counts per rank (POP "cartesian"): block pos goes to
      // rank pos * nranks / n, stepped without a division per block.
      std::size_t rank = 0;
      std::size_t rem = 0;  // pos * ranks == rank * n + rem
      for (std::size_t pos = 0; pos < n; ++pos) {
        assign[pos] = static_cast<int>(rank);
        rank += ranks / n;
        rem += ranks % n;
        if (rem >= n) {
          ++rank;
          rem -= n;
        }
      }
      break;
    }
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
  const auto ocean = grid.ocean_points_lattice(shape.bx, shape.by);
  nbx_ = (grid.nx() - 1) / shape.bx + 1;
  nby_ = (grid.ny() - 1) / shape.by + 1;
  blocks_.reserve(ocean.size());
  // Eliminate all-land blocks, then deal the surviving ocean blocks to ranks.
  // Work is quantized in whole blocks, so the residual imbalance is roughly
  // one block's worth of points over the per-rank mean — the mechanism that
  // makes block size a load-balance knob.
  std::vector<std::int64_t> ocean_pts;
  ocean_pts.reserve(ocean.size());
  std::int64_t total_ocean = 0;
  for (int ix = 0; ix < nbx_; ++ix) {
    for (int iy = 0; iy < nby_; ++iy) {
      BlockInfo b;
      b.ix = ix;
      b.iy = iy;
      b.width = std::min(grid.nx() - ix * shape.bx, shape.bx);
      b.height = std::min(grid.ny() - iy * shape.by, shape.by);
      b.ocean_points = ocean[blocks_.size()];
      if (b.ocean_points > 0) {
        ocean_pts.push_back(b.ocean_points);
        total_ocean += b.ocean_points;
      }
      blocks_.push_back(b);
    }
  }
  ocean_blocks_ = static_cast<int>(ocean_pts.size());
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
  std::size_t pos = 0;
  for (auto& b : blocks_) {
    if (b.ocean_points > 0) b.rank = chosen[pos++];
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

double BlockDecomposition::RankLoads::inefficiency() const {
  std::int64_t max_c = 0;
  for (const auto c : computed_points) max_c = std::max(max_c, c);
  const double mean_ocean = static_cast<double>(ocean_points) /
                            static_cast<double>(computed_points.size());
  return mean_ocean > 0.0 ? static_cast<double>(max_c) / mean_ocean : 1.0;
}

BlockDecomposition::RankLoads BlockDecomposition::rank_loads() const {
  RankLoads out;
  out.computed_points.assign(static_cast<std::size_t>(nranks_), 0);
  out.blocks.assign(static_cast<std::size_t>(nranks_), 0);
  for (const auto& b : blocks_) {
    if (b.rank < 0) continue;
    const auto r = static_cast<std::size_t>(b.rank);
    out.computed_points[r] += static_cast<std::int64_t>(b.width) * b.height;
    ++out.blocks[r];
    out.ocean_points += b.ocean_points;
  }
  return out;
}

std::vector<int> BlockDecomposition::blocks_per_rank() const {
  return rank_loads().blocks;
}

std::vector<std::int64_t> BlockDecomposition::computed_points_per_rank() const {
  return rank_loads().computed_points;
}

double BlockDecomposition::compute_inefficiency() const {
  return rank_loads().inefficiency();
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
  // Node of each rank, laid out once rather than divided per neighbour pair.
  const auto ppn = static_cast<std::size_t>(ranks_per_node);
  std::vector<int> node(static_cast<std::size_t>(nranks_));
  for (std::size_t first = 0, n = 0; first < node.size(); first += ppn, ++n) {
    std::fill_n(node.begin() + static_cast<std::ptrdiff_t>(first),
                std::min(ppn, node.size() - first), static_cast<int>(n));
  }
  const auto node_of = [&node](int rank) {
    return node[static_cast<std::size_t>(rank)];
  };
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

  const auto column = static_cast<std::size_t>(nby_);
  for (std::size_t k = 0; k < blocks_.size(); ++k) {
    const auto& b = blocks_[k];
    if (b.rank < 0) continue;
    // East neighbor (x direction): exchange a column of `height` points.
    if (b.ix + 1 < nbx_) {
      const auto& e = blocks_[k + column];
      if (e.rank >= 0 && e.rank != b.rank) account(b.rank, e.rank, b.height);
    }
    // North neighbor (y direction): exchange a row of `width` points.
    if (b.iy + 1 < nby_) {
      const auto& n = blocks_[k + 1];
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
