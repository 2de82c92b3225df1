#include "core/systematic_sampler.hpp"

#include <stdexcept>

namespace harmony {

SystematicSampler::SystematicSampler(const ParamSpace& space,
                                     std::vector<int> samples_per_dim)
    : space_(&space),
      samples_per_dim_(std::move(samples_per_dim)) {
  if (samples_per_dim_.size() != space.dim()) {
    throw std::invalid_argument("SystematicSampler: samples_per_dim size mismatch");
  }
  init();
}

SystematicSampler::SystematicSampler(const ParamSpace& space, int samples_per_dim)
    : SystematicSampler(space,
                        std::vector<int>(space.dim(), samples_per_dim)) {}

void SystematicSampler::init() {
  grid_coords_.resize(space_->dim());
  plan_size_ = 1;
  for (std::size_t i = 0; i < space_->dim(); ++i) {
    const auto& p = space_->param(i);
    int want = samples_per_dim_[i];
    if (want < 1) throw std::invalid_argument("SystematicSampler: samples < 1");
    // Discrete dims cannot yield more distinct values than their lattice size.
    if (p.count() > 0 && static_cast<std::uint64_t>(want) > p.count()) {
      want = static_cast<int>(p.count());
    }
    auto& g = grid_coords_[i];
    if (want == 1) {
      g.push_back(0.5 * (p.coord_min() + p.coord_max()));
    } else {
      for (int k = 0; k < want; ++k) {
        g.push_back(p.coord_min() + (p.coord_max() - p.coord_min()) *
                                        static_cast<double>(k) /
                                        static_cast<double>(want - 1));
      }
    }
    plan_size_ *= g.size();
  }
  cursor_.assign(space_->dim(), 0);
}

std::optional<Config> SystematicSampler::propose() {
  if (exhausted_) return std::nullopt;
  std::vector<double> coords(space_->dim());
  for (std::size_t i = 0; i < coords.size(); ++i) {
    coords[i] = grid_coords_[i][cursor_[i]];
  }
  // Odometer advance.
  ++emitted_;
  for (std::size_t i = 0; i < cursor_.size(); ++i) {
    if (++cursor_[i] < grid_coords_[i].size()) break;
    cursor_[i] = 0;
    if (i + 1 == cursor_.size()) exhausted_ = true;
  }
  if (emitted_ >= plan_size_) exhausted_ = true;
  return space_->snap(coords);
}

void SystematicSampler::report(const Config& c, const EvaluationResult& r) {
  incumbent_.offer(c, r);
}

bool SystematicSampler::converged() const { return exhausted_; }

}  // namespace harmony
