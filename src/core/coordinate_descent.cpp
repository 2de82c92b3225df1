#include "core/coordinate_descent.hpp"

#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace harmony {

CoordinateDescent::CoordinateDescent(const ParamSpace& space,
                                     std::optional<Config> initial, int max_sweeps,
                                     int line_samples)
    : space_(&space),
      center_(initial.value_or(space.default_config())),
      center_value_(std::numeric_limits<double>::infinity()),
      max_sweeps_(max_sweeps),
      line_samples_(line_samples) {
  if (max_sweeps < 1) throw std::invalid_argument("CoordinateDescent: max_sweeps < 1");
  if (line_samples < 0) {
    throw std::invalid_argument("CoordinateDescent: negative line_samples");
  }
}

void CoordinateDescent::refill_queue() {
  const auto timer = obs::time_scope<"cd.refill_s">();
  obs::count<"cd.sweeps">();
  queue_.clear();
  if (line_samples_ == 0) {
    for (auto& n : space_->neighbors(center_)) queue_.push_back(std::move(n));
  } else {
    // Per-coordinate line search: sample each dimension across its range
    // while the others stay at the center.
    const auto base = space_->coords(center_);
    for (std::size_t d = 0; d < space_->dim(); ++d) {
      const auto& p = space_->param(d);
      int want = line_samples_;
      if (p.count() > 0 && static_cast<std::uint64_t>(want) > p.count()) {
        want = static_cast<int>(p.count());
      }
      for (int k = 0; k < want; ++k) {
        auto coords = base;
        coords[d] = want == 1
                        ? p.coord_min()
                        : p.coord_min() + (p.coord_max() - p.coord_min()) * k /
                              (want - 1);
        Config candidate = space_->snap(coords);
        if (!(candidate == center_)) queue_.push_back(std::move(candidate));
      }
    }
  }
  improved_this_sweep_ = false;
}

std::optional<Config> CoordinateDescent::propose() {
  if (done_) return std::nullopt;
  if (pending_) return pending_;  // idempotent re-ask
  if (!center_evaluated_) {
    pending_ = center_;
    return pending_;
  }
  if (queue_.empty()) {
    if (!improved_this_sweep_ || ++sweeps_ >= max_sweeps_) {
      done_ = true;
      return std::nullopt;
    }
    refill_queue();
    if (queue_.empty()) {
      done_ = true;
      return std::nullopt;
    }
  }
  pending_ = queue_.front();
  queue_.pop_front();
  return pending_;
}

void CoordinateDescent::report(const Config& c, const EvaluationResult& r) {
  if (!pending_) throw std::logic_error("CoordinateDescent::report without propose");
  pending_.reset();
  obs::count<"cd.evaluations">();
  const double value =
      r.valid ? r.objective : std::numeric_limits<double>::infinity();
  incumbent_.offer(c, r);
  if (!center_evaluated_) {
    center_evaluated_ = true;
    center_value_ = value;
    refill_queue();
    return;
  }
  if (value < center_value_) {
    center_ = c;
    center_value_ = value;
    obs::count<"cd.improvements">();
    if (line_samples_ == 0) {
      // Greedy: restart the neighbor sweep from the improved center.
      refill_queue();
    }
    improved_this_sweep_ = true;
  }
}

bool CoordinateDescent::converged() const { return done_; }

}  // namespace harmony
