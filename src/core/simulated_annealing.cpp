#include "core/simulated_annealing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace harmony {

SimulatedAnnealing::SimulatedAnnealing(const ParamSpace& space,
                                       AnnealingOptions opts,
                                       std::optional<Config> initial)
    : space_(&space),
      opts_(opts),
      rng_(opts.seed),
      current_(initial.value_or(space.default_config())),
      current_value_(std::numeric_limits<double>::infinity()),
      temperature_(opts.initial_temperature) {
  if (opts.max_evaluations < 1) {
    throw std::invalid_argument("SimulatedAnnealing: max_evaluations < 1");
  }
}

Config SimulatedAnnealing::perturb(const Config& c) {
  const auto timer = obs::time_scope<"sa.perturb_s">();
  auto coords = space_->coords(c);
  // Move a random subset of dimensions by a Gaussian step.
  bool moved = false;
  for (int attempt = 0; attempt < 8 && !moved; ++attempt) {
    for (std::size_t i = 0; i < coords.size(); ++i) {
      if (rng_.uniform() > 1.5 / static_cast<double>(coords.size())) continue;
      const auto& p = space_->param(i);
      const double range = p.coord_max() - p.coord_min();
      if (range <= 0) continue;
      const double step =
          std::max(opts_.neighbor_fraction * range, 1.0) * rng_.normal();
      coords[i] = std::clamp(coords[i] + step, p.coord_min(), p.coord_max());
      moved = true;
    }
  }
  return space_->snap(coords);
}

std::optional<Config> SimulatedAnnealing::propose() {
  if (evaluations_ >= opts_.max_evaluations) return std::nullopt;
  if (pending_) return pending_;
  pending_ = current_evaluated_ ? perturb(current_) : current_;
  return pending_;
}

void SimulatedAnnealing::report(const Config& c, const EvaluationResult& r) {
  if (!pending_) throw std::logic_error("SimulatedAnnealing::report without propose");
  pending_.reset();
  ++evaluations_;
  obs::count<"sa.evaluations">();
  const double value =
      r.valid ? r.objective : std::numeric_limits<double>::infinity();
  if (incumbent_.offer(c, r)) obs::count<"sa.improvements">();
  if (!current_evaluated_) {
    current_evaluated_ = true;
    current_value_ = value;
    if (r.valid && !temperature_calibrated_) {
      // Scale the temperature to the magnitude of the objective so the
      // acceptance rule behaves the same for seconds and milliseconds.
      temperature_ = opts_.initial_temperature * std::max(std::abs(value), 1e-12);
      temperature_calibrated_ = true;
    }
    return;
  }
  const double delta = value - current_value_;
  bool accept = delta <= 0.0;
  if (!accept && std::isfinite(delta) && temperature_ > 0.0) {
    accept = rng_.uniform() < std::exp(-delta / temperature_);
    if (accept) obs::count<"sa.uphill_accepts">();
  }
  if (accept) {
    current_ = c;
    current_value_ = value;
    obs::count<"sa.accepts">();
  } else {
    obs::count<"sa.rejects">();
  }
  temperature_ *= opts_.cooling;
  obs::gauge_set<"sa.temperature">(temperature_);
}

bool SimulatedAnnealing::converged() const {
  return evaluations_ >= opts_.max_evaluations;
}

}  // namespace harmony
