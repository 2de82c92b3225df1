#pragma once

/// \file genetic_search.hpp
/// Batch-native genetic search over the lattice (the Odyssey/AutoSA
/// evolutionary tuner shape: a population of configurations evolved by
/// tournament selection, per-parameter uniform crossover and index-space
/// mutation). The whole point of a population is that its members are
/// independent until the generation boundary, so GeneticSearch overrides
/// propose_batch() to hand out the unevaluated members of the current
/// generation in chunks of any size, and breeding only happens once every
/// member has been reported. The proposal sequence is therefore identical
/// for every batch size — a pool-8 run evaluates the exact configurations a
/// serial run would, in the same order.
///
/// Genomes live in the ParamSpace coordinate embedding (lattice index for
/// integer/enum parameters, raw value for real ones). Mutation re-samples a
/// coordinate uniformly over its index range; crossover picks each gene from
/// either parent. Every bred genome is repaired through an optional
/// ConstraintSet projection before snapping, so constrained spaces (PETSc
/// decomposition boundaries, POP topology products) only ever see feasible
/// members. All randomness flows from one seeded rng.hpp stream consumed in
/// a fixed order, so trajectories are deterministic.
///
/// GeneticSearch is a SearchStrategy like every other strategy: it overrides
/// the batch half of the contract, and its propose()/report() delegate to
/// it with chunks of one, which is what the tuning server's ask()/tell()
/// surface and the STRATEGY wire verb drive.

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "core/constraint.hpp"
#include "core/rng.hpp"
#include "core/strategy.hpp"

namespace harmony {

struct GeneticOptions {
  int population = 24;       ///< members per generation (>= 2)
  int generations = 40;      ///< generations bred before convergence (>= 1)
  double mutation = 0.15;    ///< per-gene probability of an index re-sample
  int elite = 2;             ///< best members copied unchanged (< population)
  int tournament = 3;        ///< selection tournament size (>= 1)
  double crossover = 0.9;    ///< probability of crossover (else clone parent A)
  std::uint64_t seed = 11;
};

class GeneticSearch final : public SearchStrategy {
 public:
  /// Throws std::invalid_argument on out-of-range options (population < 2,
  /// elite >= population, mutation/crossover outside [0, 1], ...). `initial`
  /// seeds the first population's first member.
  GeneticSearch(const ParamSpace& space, GeneticOptions opts = {},
                std::optional<Config> initial = std::nullopt,
                ConstraintSet constraints = {});

  // Up to max_n unproposed members of the current generation per batch.
  [[nodiscard]] std::vector<Config> propose_batch(std::size_t max_n) override;
  void report_batch(const std::vector<Config>& configs,
                    const std::vector<EvaluationResult>& results) override;

  // Serial facade: chunks of one through the same machinery.
  [[nodiscard]] std::optional<Config> propose() override;
  void report(const Config& c, const EvaluationResult& r) override;

  [[nodiscard]] bool converged() const override;
  [[nodiscard]] std::string name() const override { return "genetic"; }

  /// Completed generations (0 while the initial population evaluates).
  [[nodiscard]] int generation() const noexcept { return generation_; }

 private:
  struct Member {
    Config config;
    double fitness = 0.0;  ///< valid only once evaluated
    bool evaluated = false;
  };

  /// Project through the constraint set and snap to the lattice.
  [[nodiscard]] Config repair(std::vector<double> coords) const;
  void spawn_initial(std::optional<Config> initial);
  void breed_next();
  [[nodiscard]] std::size_t tournament_pick(const std::vector<std::size_t>& order);

  const ParamSpace* space_;
  GeneticOptions opts_;
  ConstraintSet constraints_;
  Rng rng_;

  std::vector<Member> pop_;
  std::size_t cursor_ = 0;            ///< next unproposed member index
  std::deque<std::size_t> in_flight_; ///< proposed members awaiting reports
  int generation_ = 0;
  bool converged_ = false;

};

}  // namespace harmony
