#include "core/genetic_search.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace harmony {

namespace {

[[noreturn]] void bad(const char* msg) {
  throw std::invalid_argument(std::string("GeneticSearch: ") + msg);
}

}  // namespace

GeneticSearch::GeneticSearch(const ParamSpace& space, GeneticOptions opts,
                             std::optional<Config> initial,
                             ConstraintSet constraints)
    : space_(&space),
      opts_(opts),
      constraints_(std::move(constraints)),
      rng_(opts.seed) {
  if (space.empty()) bad("empty parameter space");
  if (opts.population < 2) bad("population must be >= 2");
  if (opts.generations < 1) bad("generations must be >= 1");
  if (opts.mutation < 0.0 || opts.mutation > 1.0) bad("mutation must be in [0, 1]");
  if (opts.elite < 0) bad("elite must be >= 0");
  if (opts.elite >= opts.population) bad("elite must be < population");
  if (opts.tournament < 1) bad("tournament must be >= 1");
  if (opts.crossover < 0.0 || opts.crossover > 1.0) {
    bad("crossover must be in [0, 1]");
  }
  spawn_initial(std::move(initial));
}

Config GeneticSearch::repair(std::vector<double> coords) const {
  if (!constraints_.empty()) constraints_.project(*space_, coords);
  return space_->snap(coords);
}

void GeneticSearch::spawn_initial(std::optional<Config> initial) {
  pop_.reserve(static_cast<std::size_t>(opts_.population));
  if (initial) {
    pop_.push_back({repair(space_->coords(*initial)), 0.0, false});
  }
  while (pop_.size() < static_cast<std::size_t>(opts_.population)) {
    pop_.push_back({repair(space_->coords(space_->random_config(rng_))), 0.0, false});
  }
}

std::vector<Config> GeneticSearch::propose_batch(std::size_t max_n) {
  std::vector<Config> batch;
  if (converged_) return batch;
  const std::size_t n = std::min(max_n, pop_.size() - cursor_);
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    batch.push_back(pop_[cursor_].config);
    in_flight_.push_back(cursor_);
    ++cursor_;
  }
  return batch;
}

void GeneticSearch::report_batch(const std::vector<Config>& configs,
                                 const std::vector<EvaluationResult>& results) {
  if (configs.size() != results.size()) {
    throw std::invalid_argument("GeneticSearch: batch size mismatch");
  }
  if (configs.size() > in_flight_.size()) {
    throw std::logic_error("GeneticSearch: report without matching proposal");
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    Member& m = pop_[in_flight_.front()];
    in_flight_.pop_front();
    const EvaluationResult& r = results[i];
    m.fitness = r.valid ? r.objective : std::numeric_limits<double>::infinity();
    m.evaluated = true;
    incumbent_.offer(m.config, r);
  }
  if (cursor_ == pop_.size() && in_flight_.empty()) {
    ++generation_;
    if (generation_ >= opts_.generations) {
      converged_ = true;
    } else {
      breed_next();
    }
  }
}

std::size_t GeneticSearch::tournament_pick(const std::vector<std::size_t>& order) {
  // `order` maps rank -> member index; drawing ranks and keeping the lowest
  // is the classic tournament with deterministic tie handling.
  std::size_t best_rank = static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(order.size()) - 1));
  for (int t = 1; t < opts_.tournament; ++t) {
    const auto rank = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(order.size()) - 1));
    best_rank = std::min(best_rank, rank);
  }
  return order[best_rank];
}

void GeneticSearch::breed_next() {
  // Rank the finished generation best-first (stable: equal fitness keeps
  // member order, so the trajectory is deterministic under ties).
  std::vector<std::size_t> order(pop_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return pop_[a].fitness < pop_[b].fitness;
  });

  std::vector<Member> next;
  next.reserve(pop_.size());
  for (int e = 0; e < opts_.elite; ++e) {
    next.push_back({pop_[order[static_cast<std::size_t>(e)]].config, 0.0, false});
  }
  while (next.size() < pop_.size()) {
    const Member& a = pop_[tournament_pick(order)];
    const Member& b = pop_[tournament_pick(order)];
    std::vector<double> child = space_->coords(a.config);
    if (rng_.uniform() < opts_.crossover) {
      const std::vector<double> other = space_->coords(b.config);
      for (std::size_t d = 0; d < child.size(); ++d) {
        if (rng_.uniform() < 0.5) child[d] = other[d];
      }
    }
    for (std::size_t d = 0; d < child.size(); ++d) {
      if (rng_.uniform() >= opts_.mutation) continue;
      const Parameter& p = space_->param(d);
      // Index-space mutation, mostly local: three quarters of the mutations
      // step a few lattice indices from the parent (how narrow optima — a
      // node-count sweet spot — actually get refined), the rest re-sample
      // uniformly so the population keeps exploring globally.
      const bool jump = rng_.uniform() < 0.25;
      if (p.count() > 0) {
        const auto count = static_cast<std::int64_t>(p.count());
        if (jump || count <= 4) {
          child[d] = static_cast<double>(rng_.uniform_int(0, count - 1));
        } else {
          const std::int64_t step = rng_.uniform_int(1, 3);
          const std::int64_t sign = rng_.uniform() < 0.5 ? -1 : 1;
          const auto cur = static_cast<std::int64_t>(child[d] + 0.5);
          child[d] = static_cast<double>(
              std::clamp(cur + sign * step, std::int64_t{0}, count - 1));
        }
      } else {
        if (jump) {
          child[d] = rng_.uniform(p.coord_min(), p.coord_max());
        } else {
          const double span = 0.1 * (p.coord_max() - p.coord_min());
          child[d] = std::clamp(child[d] + rng_.uniform(-span, span),
                                p.coord_min(), p.coord_max());
        }
      }
    }
    next.push_back({repair(std::move(child)), 0.0, false});
  }
  pop_ = std::move(next);
  cursor_ = 0;
}

std::optional<Config> GeneticSearch::propose() {
  // Serial facade: a chunk of one through the batch machinery. The strict
  // propose/report alternation means at most one member is ever in flight.
  auto batch = propose_batch(1);
  if (batch.empty()) return std::nullopt;
  return std::move(batch.front());
}

void GeneticSearch::report(const Config& c, const EvaluationResult& r) {
  report_batch({c}, {r});
}

bool GeneticSearch::converged() const { return converged_; }

}  // namespace harmony
