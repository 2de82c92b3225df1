#pragma once

/// \file strategy.hpp
/// Search-strategy interfaces. The Adaptation Controller (paper Fig. 1) is
/// implemented once, as core::SearchController, and drives every deployment:
/// in-process and off-line short-run tuning call its run() with an
/// EvalBackend, and the TCP tuning server drives its ask/tell surface.
/// Strategies plug into the controller through two interfaces:
///
///  * SearchStrategy — the classic serial ask/tell contract: propose() one
///    configuration, have it evaluated, report() the observed performance.
///    propose() and report() alternate strictly.
///  * BatchSearchStrategy — the batch-native contract the controller
///    actually speaks: propose_batch() names up to n candidates at once and
///    report_batch() returns their results element-wise. On deterministic
///    substrates independent candidates can then be evaluated concurrently
///    (src/engine's thread-pool backend).
///
/// Any SearchStrategy rides the batch pathway unchanged through
/// SequentialBatchAdapter, which emits batches of exactly one configuration
/// and therefore preserves the serial contract to the letter — propose()
/// and report() still alternate strictly, in the same order a serial loop
/// would call them, so trajectories are bitwise-identical. Strategies whose
/// proposals are independent of reports (random, systematic, exhaustive)
/// additionally get native batch wrappers in src/engine, and NelderMead
/// exposes speculative_candidates() so the engine can evaluate all possible
/// next simplex points concurrently without changing the search trajectory.
///
/// Strategies are constructed by name through StrategyRegistry
/// (strategy_registry.hpp) — the single construction path used by sessions,
/// the server's STRATEGY protocol verb, benches and examples.

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/evaluation.hpp"
#include "core/param_space.hpp"
#include "core/types.hpp"

namespace harmony {

class SearchStrategy {
 public:
  virtual ~SearchStrategy() = default;

  /// Next configuration the strategy wants evaluated, or nullopt when the
  /// strategy has converged / exhausted its plan.
  [[nodiscard]] virtual std::optional<Config> propose() = 0;

  /// Report the evaluation of the most recently proposed configuration.
  /// Strategies are sequential: propose() and report() alternate strictly.
  virtual void report(const Config& c, const EvaluationResult& r) = 0;

  /// True once the strategy considers the search finished.
  [[nodiscard]] virtual bool converged() const = 0;

  /// Best configuration observed so far (nullopt before any report).
  [[nodiscard]] virtual std::optional<Config> best() const = 0;
  [[nodiscard]] virtual double best_objective() const = 0;

  /// Short identifier for logs ("nelder-mead", "random", ...).
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Batched counterpart of SearchStrategy — the interface the controller is
/// native in. One batch is a set of candidates whose evaluations may run
/// concurrently; the controller reports the whole batch back in order.
class BatchSearchStrategy {
 public:
  virtual ~BatchSearchStrategy() = default;

  /// Up to `max_n` configurations to evaluate concurrently, ordered so that a
  /// prefix truncation still contains the configuration the strategy needs
  /// first. Empty means converged / plan exhausted.
  [[nodiscard]] virtual std::vector<Config> propose_batch(std::size_t max_n) = 0;

  /// Report the whole batch, element-wise aligned with what propose_batch
  /// returned (possibly truncated to a prefix by the controller's budget
  /// guard).
  virtual void report_batch(const std::vector<Config>& configs,
                            const std::vector<EvaluationResult>& results) = 0;

  [[nodiscard]] virtual bool converged() const = 0;
  [[nodiscard]] virtual std::optional<Config> best() const = 0;
  [[nodiscard]] virtual double best_objective() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Batch size 1 wrapper around any serial strategy: the controller sees
/// batches, the wrapped strategy sees exactly the serial propose/report
/// alternation.
class SequentialBatchAdapter final : public BatchSearchStrategy {
 public:
  /// Non-owning; `inner` must outlive the adapter.
  explicit SequentialBatchAdapter(SearchStrategy& inner) : inner_(&inner) {}

  [[nodiscard]] std::vector<Config> propose_batch(std::size_t max_n) override {
    if (max_n == 0) return {};
    auto c = inner_->propose();
    if (!c) return {};
    // push_back moves; a braced list would copy the Config out of it.
    std::vector<Config> batch;
    batch.push_back(std::move(*c));
    return batch;
  }

  void report_batch(const std::vector<Config>& configs,
                    const std::vector<EvaluationResult>& results) override {
    if (configs.size() != results.size()) {
      throw std::invalid_argument("SequentialBatchAdapter: batch size mismatch");
    }
    for (std::size_t i = 0; i < configs.size(); ++i) {
      inner_->report(configs[i], results[i]);
    }
  }

  [[nodiscard]] bool converged() const override { return inner_->converged(); }
  [[nodiscard]] std::optional<Config> best() const override { return inner_->best(); }
  [[nodiscard]] double best_objective() const override {
    return inner_->best_objective();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  SearchStrategy* inner_;
};

}  // namespace harmony
