#include "core/exhaustive.hpp"

#include <stdexcept>

namespace harmony {

Exhaustive::Exhaustive(const ParamSpace& space, std::uint64_t max_points)
    : space_(&space) {
  for (std::size_t i = 0; i < space.dim(); ++i) {
    const auto& p = space.param(i);
    if (p.count() == 0) {
      throw std::invalid_argument("Exhaustive: continuous parameter '" + p.name() +
                                  "' cannot be enumerated");
    }
    if (plan_size_ > max_points / p.count() + 1) {
      throw std::invalid_argument("Exhaustive: search space exceeds max_points");
    }
    plan_size_ *= p.count();
  }
  if (plan_size_ > max_points) {
    throw std::invalid_argument("Exhaustive: search space exceeds max_points");
  }
  cursor_.assign(space.dim(), 0);
}

std::optional<Config> Exhaustive::propose() {
  if (exhausted_) return std::nullopt;
  std::vector<double> coords(space_->dim());
  for (std::size_t i = 0; i < coords.size(); ++i) {
    coords[i] = static_cast<double>(cursor_[i]);
  }
  ++emitted_;
  for (std::size_t i = 0; i < cursor_.size(); ++i) {
    if (++cursor_[i] < space_->param(i).count()) break;
    cursor_[i] = 0;
    if (i + 1 == cursor_.size()) exhausted_ = true;
  }
  if (emitted_ >= plan_size_) exhausted_ = true;
  return space_->snap(coords);
}

void Exhaustive::report(const Config& c, const EvaluationResult& r) {
  incumbent_.offer(c, r);
}

bool Exhaustive::converged() const { return exhausted_; }

}  // namespace harmony
