#include "core/history.hpp"

#include <limits>
#include <ostream>
#include <utility>

namespace harmony {

void History::record(Config c, const EvaluationResult& r, bool cached) {
  HistoryEntry e;
  e.config = std::move(c);
  e.result = r;
  e.cached = cached;
  if (!cached) ++iterations_;
  e.iteration = iterations_;
  const HistoryEntry* incumbent = best();
  e.improved = Incumbent::improves(
      r.valid, r.objective,
      incumbent != nullptr ? incumbent->result.objective
                           : std::numeric_limits<double>::infinity());
  if (e.improved) best_ = entries_.size();
  entries_.push_back(std::move(e));
}

double History::best_after(int k) const {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& e : entries_) {
    if (e.iteration > k) break;
    if (e.result.valid) best = std::min(best, e.result.objective);
  }
  return best;
}

int History::evals_to_best() const {
  int at = 0;
  for (const auto& e : entries_) {
    if (e.improved) at = e.iteration;
  }
  return at;
}

std::vector<History::ParamChange> History::improvement_trace() const {
  std::vector<ParamChange> out;
  const Config* incumbent = nullptr;
  for (const auto& e : entries_) {
    if (!e.improved) continue;
    if (incumbent != nullptr) {
      for (std::size_t i = 0; i < e.config.size(); ++i) {
        if (!(e.config.values[i] == incumbent->values[i])) {
          out.push_back(ParamChange{e.iteration, space_->param(i).name(),
                                    to_string(incumbent->values[i]),
                                    to_string(e.config.values[i])});
        }
      }
    }
    incumbent = &e.config;
  }
  return out;
}

void History::write_csv(std::ostream& os) const {
  os << "iteration,cached,valid,objective";
  for (const auto& name : space_->names()) os << ',' << name;
  os << '\n';
  for (const auto& e : entries_) {
    os << e.iteration << ',' << (e.cached ? 1 : 0) << ',' << (e.result.valid ? 1 : 0)
       << ',' << e.result.objective;
    for (const auto& v : e.config.values) os << ',' << to_string(v);
    os << '\n';
  }
}

}  // namespace harmony
