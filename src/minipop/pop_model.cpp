#include "minipop/pop_model.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <mutex>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "simcluster/collectives.hpp"

namespace minipop {

namespace {

using simcluster::Machine;

/// One rank's baroclinic load, and its speed class: the index of its node's
/// speed among the layout's distinct speeds.
struct RankLoad {
  std::int64_t points;
  int blocks;
  int speed_class;
};

/// A machine's node layout: its node groups as (nodes, CPUs per node, speed)
/// runs, and its distinct speeds in order of first appearance, one per speed
/// class.
struct Layout {
  struct Run {
    int node_count;
    int cpus_per_node;
    double speed;
  };
  std::vector<Run> runs;
  std::vector<double> speeds;

  explicit Layout(const Machine& m) {
    for (const auto& g : m.groups()) {
      runs.push_back({g.node_count, g.cpus_per_node, g.cpu_speed});
      if (std::find(speeds.begin(), speeds.end(), g.cpu_speed) == speeds.end()) {
        speeds.push_back(g.cpu_speed);
      }
    }
  }

  [[nodiscard]] bool matches(const Machine& m) const {
    const auto& groups = m.groups();
    return std::equal(runs.begin(), runs.end(), groups.begin(), groups.end(),
                      [](const Run& r, const simcluster::NodeGroup& g) {
                        return r.node_count == g.node_count &&
                               r.cpus_per_node == g.cpus_per_node &&
                               r.speed == g.cpu_speed;
                      });
  }

  [[nodiscard]] int speed_class(double speed) const {
    return static_cast<int>(std::find(speeds.begin(), speeds.end(), speed) -
                            speeds.begin());
  }

  [[nodiscard]] std::size_t bytes() const {
    return sizeof(Layout) + runs.capacity() * sizeof(Run) +
           speeds.capacity() * sizeof(double);
  }
};

/// What step_time reads from one decomposition on one node layout. The
/// baroclinic term is the largest flops / rate over all ranks. A rank's flops
/// never fall as its computed points or blocks grow (the multipliers and cost
/// rates are non-negative, and rounding preserves that order), and the ranks
/// of a speed class share one rate. So each class keeps only its ranks'
/// Pareto-maximal (points, blocks) loads, the ones no other rank of the class
/// matches or beats in both, and the maximum over them is the maximum over
/// all ranks, bit for bit. Loads are stored class by class; up to two inline,
/// more on the heap.
class ShapeSummary {
 public:
  ShapeSummary() noexcept : inline_{} {}
  ShapeSummary(const ShapeSummary&) = delete;
  ShapeSummary& operator=(const ShapeSummary&) = delete;
  ShapeSummary(ShapeSummary&& o) noexcept : inline_{} { *this = std::move(o); }
  ShapeSummary& operator=(ShapeSummary&& o) noexcept {
    if (this == &o) return *this;
    release();
    inefficiency = o.inefficiency;
    intra_node_points = o.intra_node_points;
    inter_node_points = o.inter_node_points;
    max_rank_inter_points = o.max_rank_inter_points;
    max_blocks = o.max_blocks;
    count_ = std::exchange(o.count_, 0);
    if (spilled()) {
      heap_ = o.heap_;
    } else {
      inline_ = o.inline_;
    }
    return *this;
  }
  ~ShapeSummary() { release(); }

  void set_loads(std::span<const RankLoad> loads) {
    release();
    count_ = static_cast<std::uint32_t>(loads.size());
    if (spilled()) heap_ = new RankLoad[loads.size()];
    std::copy(loads.begin(), loads.end(), spilled() ? heap_ : inline_.data());
  }

  [[nodiscard]] std::span<const RankLoad> loads() const noexcept {
    return {spilled() ? heap_ : inline_.data(), count_};
  }

  [[nodiscard]] std::size_t heap_bytes() const noexcept {
    return spilled() ? count_ * sizeof(RankLoad) : 0;
  }

  double inefficiency = 1.0;
  std::int64_t intra_node_points = 0;
  std::int64_t inter_node_points = 0;
  std::int64_t max_rank_inter_points = 0;
  int max_blocks = 0;

 private:
  static constexpr std::size_t kInline = 2;

  [[nodiscard]] bool spilled() const noexcept { return count_ > kInline; }
  void release() noexcept {
    if (spilled()) delete[] heap_;
    count_ = 0;
  }

  std::uint32_t count_ = 0;
  union {
    std::array<RankLoad, kInline> inline_;
    RankLoad* heap_;
  };
};

ShapeSummary summarize(const BlockDecomposition& decomp, int ranks_per_node,
                       const Machine& machine, const Layout& layout) {
  const auto loads = decomp.rank_loads();
  const auto halo = decomp.halo_stats(ranks_per_node);
  ShapeSummary s;
  s.inefficiency = loads.inefficiency();
  s.intra_node_points = halo.intra_node_points;
  s.inter_node_points = halo.inter_node_points;
  s.max_rank_inter_points = halo.max_rank_inter_points;

  // Each load is dropped when a kept load of its class matches or beats it
  // in both counts, and drops the kept loads it beats. Fronts are tiny (one
  // load on most shapes), so this is one pass over the ranks.
  const auto covers = [](const RankLoad& a, const RankLoad& b) {
    return a.speed_class == b.speed_class && a.points >= b.points &&
           a.blocks >= b.blocks;
  };
  std::vector<RankLoad> front;
  for (const auto& node : machine.nodes()) {
    const int cls = layout.speed_class(node.speed);
    for (int r = node.first_rank; r < node.first_rank + node.cpus; ++r) {
      const auto i = static_cast<std::size_t>(r);
      const RankLoad load{loads.computed_points[i], loads.blocks[i], cls};
      s.max_blocks = std::max(s.max_blocks, load.blocks);
      if (std::any_of(front.begin(), front.end(),
                      [&](const RankLoad& f) { return covers(f, load); })) {
        continue;
      }
      std::erase_if(front, [&](const RankLoad& f) { return covers(load, f); });
      front.push_back(load);
    }
  }
  std::sort(front.begin(), front.end(), [](const RankLoad& a, const RankLoad& b) {
    return a.speed_class < b.speed_class;
  });
  s.set_loads(front);
  return s;
}

}  // namespace

/// Shape summaries in a set-associative table: each key hashes to one set of
/// kWays entries, evicted least recently used. Sets are allocated on first
/// use. Node layouts are interned, so a key names its layout by index and
/// compares it exactly.
struct PopModel::Memo {
  struct Key {
    int bx, by, ranks_per_node;
    std::uint16_t layout;
    std::uint8_t dist;
    bool operator==(const Key&) const = default;
  };
  struct Entry {
    Key key{};
    ShapeSummary summary;
  };
  static constexpr std::size_t kWays = 8;
  struct Set {
    std::uint8_t used = 0;
    std::array<std::uint8_t, kWays> age{};  ///< 0 is the most recently used
    std::array<Entry, kWays> ways;
  };
  // The sets and their table take at most 15/16 of the budget; spilled loads
  // and layouts share the rest.
  static constexpr std::size_t kSets =
      kMemoBudgetBytes / 16 * 15 / (sizeof(Set) + sizeof(std::unique_ptr<Set>));

  static constexpr std::size_t kMaxLayouts = 64;

  std::mutex mu;
  std::vector<std::unique_ptr<const Layout>> layouts;
  std::vector<std::unique_ptr<Set>> sets = std::vector<std::unique_ptr<Set>>(kSets);
  MemoStats stats{0, 0, 0, 0,
                  kSets * sizeof(std::unique_ptr<Set>) +
                      kMaxLayouts * sizeof(std::unique_ptr<const Layout>)};

  Memo() { layouts.reserve(kMaxLayouts); }

  [[nodiscard]] int find_layout(const Machine& m) const {
    for (std::size_t i = 0; i < layouts.size(); ++i) {
      if (layouts[i]->matches(m)) return static_cast<int>(i);
    }
    return -1;
  }

  [[nodiscard]] static std::size_t set_of(const Key& k) {
    std::uint64_t h = std::uint64_t{static_cast<std::uint32_t>(k.bx)} << 32 |
                      static_cast<std::uint32_t>(k.by);
    h = harmony::splitmix64(h) ^
        (std::uint64_t{static_cast<std::uint32_t>(k.ranks_per_node)} << 24 |
         std::uint64_t{k.layout} << 8 | k.dist);
    return harmony::splitmix64(h) % kSets;
  }

  static void touch(Set& set, std::size_t way) {
    const auto a = set.age[way];
    for (std::size_t w = 0; w < set.used; ++w) {
      if (set.age[w] < a) ++set.age[w];
    }
    set.age[way] = 0;
  }

  [[nodiscard]] const ShapeSummary* find(const Key& key) {
    Set* set = sets[set_of(key)].get();
    if (set == nullptr) return nullptr;
    for (std::size_t w = 0; w < set->used; ++w) {
      if (set->ways[w].key == key) {
        touch(*set, w);
        return &set->ways[w].summary;
      }
    }
    return nullptr;
  }

  /// Keeps `s` under `key` unless the key is already held (a concurrent miss
  /// filled it) or its loads would not fit the budget.
  void insert(const Key& key, ShapeSummary&& s) {
    auto& slot = sets[set_of(key)];
    if (!slot) {
      slot = std::make_unique<Set>();
      stats.resident_bytes += sizeof(Set);
    }
    Set& set = *slot;
    std::size_t way = 0;
    for (; way < set.used; ++way) {
      if (set.ways[way].key == key) {
        touch(set, way);
        return;
      }
    }
    const bool evict = set.used == kWays;
    if (evict) {
      way = static_cast<std::size_t>(
          std::max_element(set.age.begin(), set.age.end()) - set.age.begin());
    }
    const std::size_t freed = evict ? set.ways[way].summary.heap_bytes() : 0;
    if (stats.resident_bytes - freed + s.heap_bytes() > kMemoBudgetBytes) return;
    if (evict) {
      ++stats.evictions;
    } else {
      set.age[way] = set.used++;
      ++stats.entries;
    }
    stats.resident_bytes = stats.resident_bytes - freed + s.heap_bytes();
    set.ways[way].key = key;
    set.ways[way].summary = std::move(s);
    touch(set, way);
  }

  /// The index of the machine's layout in the table, adding `layout` (built
  /// from it) when there is none and it fits; -1 when it does not.
  [[nodiscard]] int intern(const Machine& m, std::unique_ptr<const Layout> layout) {
    if (const int id = find_layout(m); id >= 0) return id;
    if (layouts.size() == kMaxLayouts ||
        stats.resident_bytes + layout->bytes() > kMemoBudgetBytes) {
      return -1;
    }
    stats.resident_bytes += layout->bytes();
    layouts.push_back(std::move(layout));
    return static_cast<int>(layouts.size() - 1);
  }
};

PopModel::PopModel(const PopGrid& grid, PopCostModel cost, IoModel io)
    : grid_(&grid), cost_(cost), io_(io), memo_(std::make_unique<Memo>()) {
  // The memo's per-class maximum (ShapeSummary) needs flops that never fall
  // as a rank's load grows, and one positive rate per speed.
  const auto rate = [](double v) { return v >= 0.0 && std::isfinite(v); };
  if (!(cost.ref_flops_per_s > 0.0) || !std::isfinite(cost.ref_flops_per_s) ||
      !rate(cost.flops_per_point_level) || !rate(cost.block_overhead_flops) ||
      !rate(cost.momentum_share) || !rate(cost.tracer_share) ||
      !rate(cost.state_share) || !rate(cost.other_share)) {
    throw std::invalid_argument("PopModel: negative or non-finite cost rate");
  }
}

PopModel::~PopModel() = default;

PopModel::MemoStats PopModel::stats() const {
  const std::lock_guard lock(memo_->mu);
  return memo_->stats;
}

PopStepReport PopModel::shape_terms(const Machine& machine, int ranks_per_node,
                                    BlockShape block, Distribution dist,
                                    double phase_mult) const {
  const auto price = [&](const ShapeSummary& s, const Layout& layout) {
    PopStepReport rep;
    rep.imbalance = s.inefficiency;

    // --- Baroclinic 3-D update: the slowest rank gates the step. Blocks
    // compute their full extent (land is masked inside the loops, not
    // skipped), so the cost driver is *computed* points, not ocean points.
    // The largest flops of a speed class are divided once by its rate. ---
    const auto loads = s.loads();
    for (std::size_t i = 0; i < loads.size();) {
      const int cls = loads[i].speed_class;
      double max_flops = 0.0;
      for (; i < loads.size() && loads[i].speed_class == cls; ++i) {
        const double flops =
            static_cast<double>(loads[i].points) * grid_->depth_levels() *
                cost_.flops_per_point_level * phase_mult +
            static_cast<double>(loads[i].blocks) * grid_->depth_levels() *
                cost_.block_overhead_flops;
        max_flops = std::max(max_flops, flops);
      }
      rep.baroclinic_s = std::max(
          rep.baroclinic_s,
          max_flops / (cost_.ref_flops_per_s *
                       layout.speeds[static_cast<std::size_t>(cls)]));
    }

    // --- Halo exchange: per-rank average traffic, one exchange per level
    // bundle (POP aggregates levels into one message). ---
    const auto& net = machine.network();
    const double nranks = machine.total_cpus();
    const double levels = grid_->depth_levels();
    const double ghost = cost_.ghost_width;
    const double to_bytes = cost_.bytes_per_value * levels * ghost;
    // The mean per-rank traffic prices fabric contention (and carries the
    // CPUs-per-node signal: halo that stays inside an SMP node is nearly
    // free); the heaviest rank adds a bulk-synchronous gating term.
    const double avg_intra_bytes =
        to_bytes * static_cast<double>(s.intra_node_points) / nranks;
    const double avg_inter_bytes =
        to_bytes * static_cast<double>(s.inter_node_points) / nranks;
    const double max_inter_bytes =
        to_bytes * static_cast<double>(s.max_rank_inter_points);
    // Each exchange posts ~4 messages per owned block (N/S/E/W).
    const int exchanges = cost_.halo_exchanges_per_step;
    const double msgs = 4.0 * s.max_blocks;
    rep.halo_s = exchanges * (msgs * net.inter_latency_s +
                              avg_intra_bytes / net.intra_bandwidth_Bps +
                              avg_inter_bytes / net.inter_bandwidth_Bps +
                              0.5 * max_inter_bytes / net.inter_bandwidth_Bps);
    return rep;
  };

  Memo& memo = *memo_;
  Memo::Key key{block.bx, block.by, ranks_per_node, 0,
                static_cast<std::uint8_t>(dist)};
  const Layout* layout = nullptr;
  {
    const std::lock_guard lock(memo.mu);
    if (const int id = memo.find_layout(machine); id >= 0) {
      key.layout = static_cast<std::uint16_t>(id);
      layout = memo.layouts[static_cast<std::size_t>(id)].get();
      if (const ShapeSummary* s = memo.find(key)) {
        ++memo.stats.hits;
        return price(*s, *layout);
      }
    }
    ++memo.stats.misses;
  }

  // Built outside the lock, so concurrent misses on other shapes overlap.
  // Interned layouts are immutable and live as long as the model.
  std::unique_ptr<const Layout> fresh;
  if (layout == nullptr) {
    fresh = std::make_unique<const Layout>(machine);
    layout = fresh.get();
  }
  ShapeSummary s = summarize(
      BlockDecomposition(*grid_, block, machine.total_cpus(), dist),
      ranks_per_node, machine, *layout);
  const PopStepReport rep = price(s, *layout);

  const std::lock_guard lock(memo.mu);
  if (fresh) {
    const int id = memo.intern(machine, std::move(fresh));
    if (id < 0) return rep;
    key.layout = static_cast<std::uint16_t>(id);
  }
  memo.insert(key, std::move(s));
  return rep;
}

PopStepReport PopModel::step_time(const Machine& machine, int ranks_per_node,
                                  BlockShape block, const PhaseMultipliers& mult,
                                  Distribution dist) const {
  const int nranks = machine.total_cpus();
  if (ranks_per_node < 1) throw std::invalid_argument("step_time: bad ppn");
  for (const double m : {mult.momentum, mult.tracer, mult.state, mult.forcing}) {
    if (!(m >= 0.0) || !std::isfinite(m)) {
      throw std::invalid_argument("step_time: negative or non-finite multiplier");
    }
  }
  const double phase_mult = cost_.momentum_share * mult.momentum +
                            cost_.tracer_share * mult.tracer +
                            cost_.state_share * mult.state + cost_.other_share;
  PopStepReport rep =
      shape_terms(machine, ranks_per_node, block, dist, phase_mult);

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

double PopModel::run_time(const Machine& machine, int ranks_per_node,
                          BlockShape block, const PhaseMultipliers& mult,
                          int steps, Distribution dist) const {
  if (steps < 1) throw std::invalid_argument("run_time: steps < 1");
  return steps * step_time(machine, ranks_per_node, block, mult, dist).total_s;
}

}  // namespace minipop
