#pragma once

/// \file nelder_mead.hpp
/// The Active Harmony Adaptation Controller's kernel: a Nelder–Mead simplex
/// search (paper Section II, citing Nelder & Mead 1965) adapted for tuning:
///
///  * The simplex lives in the continuous coordinate embedding of the
///    parameter space; every evaluation snaps to the nearest integer lattice
///    point, "simply using the resulting values from the nearest integer
///    point in the space to approximate the performance at the selected
///    point" (paper Section II).
///  * Constraints (dependent variables, footnote 2) are honoured by
///    projecting candidate coordinates onto the feasible region before
///    snapping.
///  * Because many continuous points collapse onto one lattice point, the
///    search can stall; an optional restart re-seeds a smaller simplex
///    around the incumbent until the evaluation budget is spent.
///
/// Implemented as an ask/tell state machine so it can serve on-line tuning,
/// off-line short-run tuning and the TCP server alike.

#include <memory>
#include <optional>
#include <vector>

#include "core/constraint.hpp"
#include "core/rng.hpp"
#include "core/strategy.hpp"

namespace harmony {

struct NelderMeadOptions {
  /// Standard simplex coefficients (Lagarias et al. defaults).
  double reflection = 1.0;    ///< rho
  double expansion = 2.0;     ///< chi
  double contraction = 0.5;   ///< gamma
  double shrink = 0.5;        ///< sigma

  /// Initial simplex edge length as a fraction of each coordinate range.
  double initial_step_fraction = 0.25;

  /// Convergence: simplex diameter (in coordinate units) below which the
  /// search is considered converged.
  double diameter_tolerance = 0.5;

  /// Convergence: stop after this many consecutive proposals that failed to
  /// improve the incumbent (0 disables the stall test).
  int max_stall = 0;

  /// Re-seed a fresh, smaller simplex around the incumbent when the simplex
  /// collapses, up to this many times (0 = classic single-descent behaviour).
  int max_restarts = 0;

  /// Scale applied to initial_step_fraction on each restart.
  double restart_shrink = 0.5;

  /// Seed for restart jitter.
  std::uint64_t seed = 42;
};

class NelderMead final : public SearchStrategy {
 public:
  /// Start the search around `initial` (defaults to the space's default
  /// configuration when omitted).
  NelderMead(const ParamSpace& space, NelderMeadOptions opts = {},
             std::optional<Config> initial = std::nullopt,
             ConstraintSet constraints = {});

  [[nodiscard]] std::optional<Config> propose() override;
  void report(const Config& c, const EvaluationResult& r) override;
  [[nodiscard]] bool converged() const override;
  [[nodiscard]] std::string name() const override { return "nelder-mead"; }

  /// Batch-evaluation hook for the parallel engine: every configuration the
  /// state machine may ask for before the current phase resolves, in the
  /// order a serial drive would first need them.
  ///
  ///  * BuildSimplex/Shrink: all not-yet-evaluated vertices (their coordinates
  ///    are fixed for the whole phase, so they are independent).
  ///  * Reflect: the reflection point plus the expansion and both contraction
  ///    points derived from the same centroid/worst pair — evaluating all
  ///    four speculatively and then replaying the standard acceptance rule
  ///    reproduces the serial simplex exactly on deterministic objectives.
  ///  * Expand/Contract phases: just the pending candidate.
  ///
  /// Used by harmony::engine::SpeculativeNelderMead; const, no state change.
  [[nodiscard]] std::vector<Config> speculative_candidates() const;

  /// Current simplex diameter (max pairwise L-inf distance), for tests.
  [[nodiscard]] double simplex_diameter() const;

  /// Human-readable name of the current simplex phase ("build", "reflect",
  /// "expand", "contract-out", "contract-in", "shrink", "done") — published
  /// to the live-status board by the tuning server.
  [[nodiscard]] const char* phase_name() const noexcept;

  /// Number of completed simplex transformations (reflect/expand/...).
  [[nodiscard]] int transformations() const noexcept { return transformations_; }
  [[nodiscard]] int restarts_used() const noexcept { return restarts_used_; }

 private:
  struct Vertex {
    std::vector<double> coords;
    double value = 0.0;
    bool evaluated = false;
  };

  enum class Phase {
    BuildSimplex,   // evaluating the n+1 initial vertices
    Reflect,
    Expand,
    ContractOutside,
    ContractInside,
    Shrink,
    Done,
  };

  /// Project + snap a coordinate vector into a feasible configuration.
  [[nodiscard]] Config make_config(const std::vector<double>& coords) const;

  /// Overwrite the worst vertex in place with an evaluated point.
  void replace_worst(const std::vector<double>& coords, double value);

  void order_simplex();
  void begin_iteration();
  void begin_shrink();
  void maybe_restart();
  void seed_simplex(const std::vector<double>& center, double step_fraction);

  const ParamSpace* space_;
  NelderMeadOptions opts_;
  ConstraintSet constraints_;
  Rng rng_;

  // Every working vector below keeps its capacity across iterations: after
  // the first iteration a propose/report round allocates only the Config it
  // hands out.
  std::vector<Vertex> simplex_;
  Phase phase_ = Phase::BuildSimplex;
  std::size_t pending_index_ = 0;       // vertex being evaluated in Build/Shrink
  std::vector<double> pending_coords_;  // candidate point awaiting a report
  double reflected_value_ = 0.0;
  std::vector<double> reflected_coords_;
  /// Centroid of all vertices but the worst, computed by begin_iteration()
  /// and valid for the whole Reflect phase it starts (a restart borrows it
  /// for the new simplex's center).
  std::vector<double> centroid_;
  /// make_config's projection buffer (make_config is const, hence mutable).
  mutable std::vector<double> project_scratch_;

  int stall_count_ = 0;
  int transformations_ = 0;
  int restarts_used_ = 0;
  double current_step_fraction_;
  bool awaiting_report_ = false;
};

}  // namespace harmony
