#include "core/nelder_mead.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace harmony {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

NelderMead::NelderMead(const ParamSpace& space, NelderMeadOptions opts,
                       std::optional<Config> initial, ConstraintSet constraints)
    : space_(&space),
      opts_(opts),
      constraints_(std::move(constraints)),
      rng_(opts.seed),
      current_step_fraction_(opts.initial_step_fraction) {
  if (space.empty()) {
    throw std::invalid_argument("NelderMead: empty parameter space");
  }
  const Config start = initial.value_or(space.default_config());
  seed_simplex(space.coords(start), current_step_fraction_);
}

void NelderMead::seed_simplex(const std::vector<double>& center,
                              double step_fraction) {
  // A restart re-seeds the vertices in place, keeping their coordinate
  // storage.
  const std::size_t n = space_->dim();
  simplex_.resize(n + 1);
  for (auto& v : simplex_) {
    v.coords = center;
    v.value = 0.0;
    v.evaluated = false;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto& p = space_->param(i);
    const double range = p.coord_max() - p.coord_min();
    // Never seed a degenerate edge: even a single-lattice-step displacement
    // keeps the simplex non-flat in this dimension.
    double step = std::max(step_fraction * range, range > 0.0 ? 1.0 : 0.0);
    if (p.type() == ParamType::Real) step = std::max(step_fraction * range, 1e-9 * range);
    auto& coords = simplex_[i + 1].coords;
    // Step towards whichever side has room.
    if (coords[i] + step <= p.coord_max()) {
      coords[i] += step;
    } else {
      coords[i] -= step;
    }
    coords[i] = std::clamp(coords[i], p.coord_min(), p.coord_max());
  }
  phase_ = Phase::BuildSimplex;
  pending_index_ = 0;
  awaiting_report_ = false;
  stall_count_ = 0;
}

Config NelderMead::make_config(const std::vector<double>& coords_in) const {
  auto& coords = project_scratch_;
  coords = coords_in;
  constraints_.project(*space_, coords);
  for (std::size_t i = 0; i < coords.size(); ++i) {
    const auto& p = space_->param(i);
    coords[i] = std::clamp(coords[i], p.coord_min(), p.coord_max());
  }
  return space_->snap(coords);
}

std::optional<Config> NelderMead::propose() {
  if (phase_ == Phase::Done) return std::nullopt;
  switch (phase_) {
    case Phase::BuildSimplex:
    case Phase::Shrink:
      // Find the vertex currently needing evaluation.
      while (pending_index_ < simplex_.size() && simplex_[pending_index_].evaluated) {
        ++pending_index_;
      }
      if (pending_index_ >= simplex_.size()) {
        // All vertices evaluated (can happen when report() finished the
        // phase); fall through to the next iteration.
        begin_iteration();
        return propose();
      }
      pending_coords_ = simplex_[pending_index_].coords;
      break;
    case Phase::Reflect:
    case Phase::Expand:
    case Phase::ContractOutside:
    case Phase::ContractInside:
      // pending_coords_ already prepared by the transition.
      break;
    case Phase::Done:
      return std::nullopt;
  }
  awaiting_report_ = true;
  return make_config(pending_coords_);
}

void NelderMead::report(const Config& c, const EvaluationResult& r) {
  if (!awaiting_report_) {
    throw std::logic_error("NelderMead::report without a pending propose()");
  }
  awaiting_report_ = false;

  double value = r.valid ? r.objective : kInf;
  if (r.valid && !constraints_.empty()) value += constraints_.penalty(*space_, c);

  // The incumbent ranks by the constraint-penalized value.
  stall_count_ = incumbent_.offer(c, value, r.valid) ? 0 : stall_count_ + 1;

  switch (phase_) {
    case Phase::BuildSimplex:
    case Phase::Shrink: {
      simplex_[pending_index_].value = value;
      simplex_[pending_index_].evaluated = true;
      ++pending_index_;
      while (pending_index_ < simplex_.size() && simplex_[pending_index_].evaluated) {
        ++pending_index_;
      }
      if (pending_index_ >= simplex_.size()) begin_iteration();
      return;
    }
    case Phase::Reflect: {
      // The next candidate is built in place in pending_coords_ from the
      // centroid begin_iteration() left in centroid_ (the simplex has not
      // changed since).
      reflected_value_ = value;
      reflected_coords_ = pending_coords_;
      const std::size_t n = simplex_.size() - 1;
      const double f_best = simplex_.front().value;
      const double f_second_worst = simplex_[n - 1].value;
      const double f_worst = simplex_[n].value;
      const auto& centroid = centroid_;
      if (value < f_best) {
        // Try to expand further along the same direction.
        for (std::size_t i = 0; i < centroid.size(); ++i) {
          pending_coords_[i] = centroid[i] +
                               opts_.expansion * (reflected_coords_[i] - centroid[i]);
        }
        phase_ = Phase::Expand;
        return;
      }
      if (value < f_second_worst) {
        replace_worst(reflected_coords_, value);
        ++transformations_;
        obs::count<"nm.reflect">();
        begin_iteration();
        return;
      }
      if (value < f_worst) {
        // Outside contraction between centroid and reflected point.
        for (std::size_t i = 0; i < centroid.size(); ++i) {
          pending_coords_[i] = centroid[i] +
                               opts_.contraction * (reflected_coords_[i] - centroid[i]);
        }
        phase_ = Phase::ContractOutside;
      } else {
        // Inside contraction between centroid and the worst vertex.
        const auto& worst = simplex_.back().coords;
        for (std::size_t i = 0; i < centroid.size(); ++i) {
          pending_coords_[i] = centroid[i] -
                               opts_.contraction * (centroid[i] - worst[i]);
        }
        phase_ = Phase::ContractInside;
      }
      return;
    }
    case Phase::Expand: {
      if (value < reflected_value_) {
        replace_worst(pending_coords_, value);
        obs::count<"nm.expand">();
      } else {
        replace_worst(reflected_coords_, reflected_value_);
        obs::count<"nm.reflect">();
      }
      ++transformations_;
      begin_iteration();
      return;
    }
    case Phase::ContractOutside: {
      if (value <= reflected_value_) {
        replace_worst(pending_coords_, value);
        ++transformations_;
        obs::count<"nm.contract_outside">();
        begin_iteration();
      } else {
        begin_shrink();
      }
      return;
    }
    case Phase::ContractInside: {
      if (value < simplex_.back().value) {
        replace_worst(pending_coords_, value);
        ++transformations_;
        obs::count<"nm.contract_inside">();
        begin_iteration();
      } else {
        begin_shrink();
      }
      return;
    }
    case Phase::Done:
      return;
  }
}

std::vector<Config> NelderMead::speculative_candidates() const {
  std::vector<Config> out;
  switch (phase_) {
    case Phase::BuildSimplex:
    case Phase::Shrink:
      for (const auto& v : simplex_) {
        if (!v.evaluated) out.push_back(make_config(v.coords));
      }
      break;
    case Phase::Reflect: {
      // pending_coords_ holds the continuous reflection point xr prepared by
      // begin_iteration(). The expansion and outside-contraction points are
      // functions of xr and the centroid; the inside-contraction point is a
      // function of the centroid and the worst vertex. All four use exactly
      // the formulas report() would apply, so speculative results replayed
      // through report() are bitwise-identical to a serial drive.
      const auto& centroid = centroid_;
      const auto& xr = pending_coords_;
      const auto& worst = simplex_.back().coords;
      std::vector<double> xe(centroid.size());
      std::vector<double> xoc(centroid.size());
      std::vector<double> xic(centroid.size());
      for (std::size_t i = 0; i < centroid.size(); ++i) {
        xe[i] = centroid[i] + opts_.expansion * (xr[i] - centroid[i]);
        xoc[i] = centroid[i] + opts_.contraction * (xr[i] - centroid[i]);
        xic[i] = centroid[i] - opts_.contraction * (centroid[i] - worst[i]);
      }
      out.push_back(make_config(xr));
      out.push_back(make_config(xe));
      out.push_back(make_config(xoc));
      out.push_back(make_config(xic));
      break;
    }
    case Phase::Expand:
    case Phase::ContractOutside:
    case Phase::ContractInside:
      out.push_back(make_config(pending_coords_));
      break;
    case Phase::Done:
      break;
  }
  return out;
}

void NelderMead::replace_worst(const std::vector<double>& coords, double value) {
  Vertex& worst = simplex_.back();
  worst.coords = coords;
  worst.value = value;
  worst.evaluated = true;
}

void NelderMead::order_simplex() {
  // Stable insertion sort by value. A stable sort's output is unique, so
  // this orders exactly as std::stable_sort, without its temporary buffer;
  // moving a Vertex only moves its coordinate storage.
  for (std::size_t i = 1; i < simplex_.size(); ++i) {
    if (!(simplex_[i].value < simplex_[i - 1].value)) continue;
    Vertex v = std::move(simplex_[i]);
    std::size_t j = i;
    for (; j > 0 && v.value < simplex_[j - 1].value; --j) {
      simplex_[j] = std::move(simplex_[j - 1]);
    }
    simplex_[j] = std::move(v);
  }
}

double NelderMead::simplex_diameter() const {
  // Chebyshev diameter as the largest per-dimension spread (max - min), in
  // O(vertices x dims) instead of comparing every pair of vertices. It equals
  // the pairwise maximum bit for bit, because rounded subtraction is monotone.
  if (simplex_.empty()) return 0.0;
  double d = 0.0;
  for (std::size_t i = 0; i < simplex_.front().coords.size(); ++i) {
    double lo = simplex_.front().coords[i];
    double hi = lo;
    for (const auto& v : simplex_) {
      lo = std::min(lo, v.coords[i]);
      hi = std::max(hi, v.coords[i]);
    }
    d = std::max(d, hi - lo);
  }
  return d;
}

void NelderMead::begin_iteration() {
  order_simplex();
  const bool collapsed = simplex_diameter() < opts_.diameter_tolerance;
  const bool stalled = opts_.max_stall > 0 && stall_count_ >= opts_.max_stall;
  if (collapsed || stalled) {
    maybe_restart();
    if (phase_ == Phase::Done) return;
    // maybe_restart seeded a fresh simplex; evaluation resumes there.
    return;
  }
  // Centroid of every vertex but the worst, then the reflection candidate.
  const std::size_t n = simplex_.size() - 1;
  centroid_.assign(space_->dim(), 0.0);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t i = 0; i < centroid_.size(); ++i) {
      centroid_[i] += simplex_[v].coords[i];
    }
  }
  for (auto& x : centroid_) x /= static_cast<double>(n);
  const auto& worst = simplex_.back().coords;
  pending_coords_.resize(centroid_.size());
  for (std::size_t i = 0; i < centroid_.size(); ++i) {
    pending_coords_[i] = centroid_[i] + opts_.reflection * (centroid_[i] - worst[i]);
  }
  phase_ = Phase::Reflect;
}

void NelderMead::begin_shrink() {
  // Shrink every vertex towards the best one, then re-evaluate them.
  const auto& x1 = simplex_.front().coords;
  for (std::size_t v = 1; v < simplex_.size(); ++v) {
    auto& vert = simplex_[v];
    for (std::size_t i = 0; i < vert.coords.size(); ++i) {
      vert.coords[i] = x1[i] + opts_.shrink * (vert.coords[i] - x1[i]);
    }
    vert.evaluated = false;
  }
  ++transformations_;
  obs::count<"nm.shrink">();
  phase_ = Phase::Shrink;
  pending_index_ = 1;
}

void NelderMead::maybe_restart() {
  if (restarts_used_ >= opts_.max_restarts || !incumbent_.config()) {
    phase_ = Phase::Done;
    return;
  }
  ++restarts_used_;
  obs::count<"nm.restart">();
  current_step_fraction_ = std::max(current_step_fraction_ * opts_.restart_shrink,
                                    1e-3);
  // Jitter the restart center slightly so a re-seeded simplex does not
  // retrace the identical lattice path.
  // The centroid buffer is free outside the Reflect phase; reuse it for the
  // restart center.
  auto& center = centroid_;
  space_->coords(*incumbent_.config(), center);
  for (std::size_t i = 0; i < center.size(); ++i) {
    const auto& p = space_->param(i);
    const double range = p.coord_max() - p.coord_min();
    center[i] = std::clamp(center[i] + 0.1 * range * (rng_.uniform() - 0.5),
                           p.coord_min(), p.coord_max());
  }
  seed_simplex(center, current_step_fraction_);
}

const char* NelderMead::phase_name() const noexcept {
  switch (phase_) {
    case Phase::BuildSimplex: return "build";
    case Phase::Reflect: return "reflect";
    case Phase::Expand: return "expand";
    case Phase::ContractOutside: return "contract-out";
    case Phase::ContractInside: return "contract-in";
    case Phase::Shrink: return "shrink";
    case Phase::Done: return "done";
  }
  return "unknown";
}

bool NelderMead::converged() const { return phase_ == Phase::Done; }

}  // namespace harmony
