#pragma once

/// \file history.hpp
/// Record of a tuning run: every evaluated configuration in order, with the
/// observed objective and whether it improved the incumbent. It is also the
/// run's one incumbent record: best() points at the entry that holds it, so
/// the controller, the server and Session keep no copy of the best Config.
/// The paper's Table I ("parameter changes through iterations") is generated
/// directly from this record, as are the CSV exports behind Figures 2-6.

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/evaluation.hpp"
#include "core/param_space.hpp"
#include "core/types.hpp"

namespace harmony {

struct HistoryEntry {
  int iteration = 0;           ///< distinct-evaluation index (cache misses only)
  Config config;
  EvaluationResult result;
  bool improved = false;       ///< true when this run improved the incumbent
  bool cached = false;         ///< true when served from the evaluation cache
};

class History {
 public:
  explicit History(const ParamSpace& space) : space_(&space) {}

  /// Append one evaluation, marking it improved when Incumbent's rule takes
  /// it over the current best. Takes the config by value so hot callers (the
  /// controller's tell() path) can move theirs in instead of copying.
  void record(Config c, const EvaluationResult& r, bool cached);

  [[nodiscard]] const std::vector<HistoryEntry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  /// Number of distinct (non-cached) evaluations — the paper's "iterations".
  [[nodiscard]] int iterations() const noexcept { return iterations_; }

  /// Number of entries served from an evaluation cache instead of a fresh
  /// run — including a repeat inside a pool batch that shared its first
  /// occurrence's run, which the pool backend reports the same way.
  [[nodiscard]] int cached_count() const noexcept {
    return static_cast<int>(entries_.size()) - iterations_;
  }

  /// The incumbent: the first entry with the lowest valid objective, or null
  /// while nothing valid has been recorded. Invalidated by the next record().
  [[nodiscard]] const HistoryEntry* best() const noexcept {
    return best_ < entries_.size() ? &entries_[best_] : nullptr;
  }

  /// Best objective seen after the first k distinct iterations (for
  /// convergence curves); k past the end returns the final best.
  [[nodiscard]] double best_after(int k) const;

  /// Distinct evaluations needed before the final best objective was first
  /// reached — the convergence-speed number the benchmark regression gate
  /// compares across commits. Zero when nothing valid was recorded.
  [[nodiscard]] int evals_to_best() const;

  /// For each improving iteration, which parameters changed relative to the
  /// previous incumbent: the exact shape of the paper's Table I rows.
  struct ParamChange {
    int iteration;
    std::string param;
    std::string from;
    std::string to;
  };
  [[nodiscard]] std::vector<ParamChange> improvement_trace() const;

  /// CSV with one row per evaluation: iteration,cached,objective,valid,params...
  void write_csv(std::ostream& os) const;

 private:
  const ParamSpace* space_;
  std::vector<HistoryEntry> entries_;
  int iterations_ = 0;
  /// Index of best() in entries_; past the end while there is none (as in a
  /// moved-from History, whose entries_ is empty).
  std::size_t best_ = static_cast<std::size_t>(-1);
};

}  // namespace harmony
