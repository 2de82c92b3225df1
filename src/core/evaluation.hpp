#pragma once

/// \file evaluation.hpp
/// Objective evaluation plumbing. An Evaluator maps a configuration to a
/// performance measurement (the paper always minimizes execution time, but
/// the objective is user-defined, Section II). The EvalCache memoizes results
/// per lattice point: the simplex frequently revisits configurations after
/// snapping, and re-running a "representative short run" for a configuration
/// already measured would waste tuning time (Section III counts each distinct
/// short run as one tuning iteration).

#include <algorithm>
#include <cstddef>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/flat_map.hpp"
#include "core/param_space.hpp"
#include "core/point_key.hpp"
#include "core/types.hpp"

namespace harmony {

/// Auxiliary metrics of one evaluation: a flat, sorted vector of
/// (name, value) pairs with map-like lookup. Results are copied through
/// futures, History entries and caches constantly; a flat vector is one
/// allocation per copy (zero when empty) versus one node per entry for
/// std::map, and iteration is a contiguous scan. Metric sets are tiny
/// (0-3 entries everywhere in this repo), so the O(n) insert shift is noise.
class MetricMap {
 public:
  using value_type = std::pair<std::string, double>;
  using const_iterator = std::vector<value_type>::const_iterator;

  MetricMap() = default;
  MetricMap(std::initializer_list<value_type> init) {
    for (const auto& kv : init) (*this)[kv.first] = kv.second;
  }

  /// Value for `name`, inserted as 0.0 when absent (std::map semantics).
  double& operator[](std::string_view name) {
    auto it = lower_bound(name);
    if (it != entries_.end() && it->first == name) return it->second;
    it = entries_.emplace(it, std::string(name), 0.0);
    return it->second;
  }

  [[nodiscard]] double at(std::string_view name) const {
    const auto it = find(name);
    if (it == entries_.end()) {
      throw std::out_of_range("MetricMap::at: no metric '" + std::string(name) + "'");
    }
    return it->second;
  }

  [[nodiscard]] const_iterator find(std::string_view name) const noexcept {
    const auto it = lower_bound(name);
    return (it != entries_.end() && it->first == name) ? it : entries_.end();
  }

  [[nodiscard]] std::size_t count(std::string_view name) const noexcept {
    return find(name) == entries_.end() ? 0 : 1;
  }

  [[nodiscard]] const_iterator begin() const noexcept { return entries_.begin(); }
  [[nodiscard]] const_iterator end() const noexcept { return entries_.end(); }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  void clear() noexcept { entries_.clear(); }

  [[nodiscard]] bool operator==(const MetricMap& other) const = default;

 private:
  // entries_ stays sorted by name; lower_bound gives O(log n) lookup.
  [[nodiscard]] const_iterator lower_bound(std::string_view name) const noexcept {
    return std::lower_bound(
        entries_.begin(), entries_.end(), name,
        [](const value_type& e, std::string_view n) { return e.first < n; });
  }
  [[nodiscard]] std::vector<value_type>::iterator lower_bound(std::string_view name) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), name,
        [](const value_type& e, std::string_view n) { return e.first < n; });
  }

  std::vector<value_type> entries_;
};

/// Result of evaluating one configuration.
struct EvaluationResult {
  /// Objective value to minimize (simulated or measured seconds in all the
  /// paper's experiments). Infinity marks an infeasible configuration.
  double objective = 0.0;

  /// False when the run failed / configuration was infeasible.
  bool valid = true;

  /// Auxiliary metrics for reporting (e.g. "comm_s", "imbalance").
  MetricMap metrics;

  [[nodiscard]] static EvaluationResult infeasible();
};

/// The best configuration seen so far and its value: the one place the
/// strict-improvement rule lives. A valid offer whose value is strictly
/// lower than the best so far becomes the best, so a tie keeps the first
/// configuration and an invalid or NaN value never becomes best.
class Incumbent {
 public:
  /// The rule itself, for a record that keeps its best by position (History).
  [[nodiscard]] static bool improves(bool valid, double value, double best) noexcept {
    return valid && value < best;
  }

  /// Offer `c` with `value`; true when it became the best.
  bool offer(const Config& c, double value, bool valid) {
    if (!improves(valid, value, value_)) return false;
    value_ = value;
    config_ = c;
    return true;
  }
  bool offer(const Config& c, const EvaluationResult& r) {
    return offer(c, r.objective, r.valid);
  }

  /// The best configuration; nullopt before any offer was taken.
  [[nodiscard]] const std::optional<Config>& config() const noexcept { return config_; }
  /// Its value; +inf before any offer was taken.
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  std::optional<Config> config_;
  double value_ = std::numeric_limits<double>::infinity();
};

/// User-supplied objective function.
using Evaluator = std::function<EvaluationResult(const Config&)>;

/// Memoization table keyed by the index-space identity (PointKey) of a
/// configuration — an open-addressing flat table, so the steady-state
/// lookup/store cycle allocates nothing (callers that loop should use the
/// PointKey overloads with a reused scratch key).
///
/// Thread-safety contract: EvalCache is strictly single-threaded — lookup()
/// is `const` yet mutates the hit/miss counters, with no synchronization.
/// Every use must stay on one thread (Debug builds assert this). Each
/// backend serves one controller and is called only from its thread, so the
/// thread-pool backend's cache is one of these too.
class EvalCache {
 public:
  explicit EvalCache(const ParamSpace& space) : space_(&space) {}

  /// Cached result, or nullopt when the configuration has not been evaluated.
  [[nodiscard]] std::optional<EvaluationResult> lookup(const Config& c) const;

  /// Allocation-free variant: borrow a pointer into the table (valid until
  /// the next store/clear), counting the hit or miss.
  [[nodiscard]] const EvaluationResult* lookup(const PointKey& k) const;

  /// Record a result (overwrites any previous entry for the same point).
  void store(const Config& c, const EvaluationResult& r);
  void store(const PointKey& k, const EvaluationResult& r);

  [[nodiscard]] std::size_t size() const noexcept { return table_.size(); }
  [[nodiscard]] std::size_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::size_t misses() const noexcept { return misses_; }
  void clear();

 private:
  /// Debug-only single-thread assertion: remembers the first thread that
  /// touches the cache and aborts if any other thread follows.
  void check_thread() const;

  const ParamSpace* space_;
  FlatPointMap<EvaluationResult> table_;
  mutable PointKey scratch_;  ///< reused by the Config overloads
  mutable std::size_t hits_ = 0;
  mutable std::size_t misses_ = 0;
  /// Claimed by check_thread() in debug builds; declared in every build so
  /// the class layout does not depend on NDEBUG. Default id = not claimed.
  mutable std::thread::id owner_{};
};

}  // namespace harmony
