#pragma once

/// \file strategy.hpp
/// Search-strategy interfaces. The Adaptation Controller (paper Fig. 1) is
/// implemented once, as core::SearchController, and drives every deployment:
/// in-process and off-line short-run tuning call its run() with an
/// EvalBackend, and the TCP tuning server drives its ask/tell surface.
/// There is one strategy contract, BatchSearchStrategy: propose_batch()
/// names up to n candidates at once and report_batch() returns their results
/// element-wise, so on deterministic substrates independent candidates can
/// be evaluated concurrently (src/engine's thread-pool backend).
///
/// SearchStrategy is the serial form of that contract: propose() one
/// configuration, have it evaluated, report() the observed performance, with
/// propose() and report() alternating strictly. Its default propose_batch()
/// makes at most one propose() call and report_batch() reports element by
/// element, so a serial strategy handed to the controller sees exactly the
/// alternation a serial loop would produce and its trajectory is
/// bitwise-identical. Strategies whose proposals never depend on reports
/// (random, systematic, exhaustive) override propose_batch() with
/// propose_up_to(), and GeneticSearch hands out a whole generation; the
/// server's ask()/tell() keeps calling propose()/report() directly.
/// NelderMead exposes speculative_candidates() so
/// engine::SpeculativeNelderMead can evaluate all possible next simplex
/// points concurrently without changing the search trajectory.
///
/// Each strategy's incumbent lives in BatchSearchStrategy's protected
/// incumbent_ (an Incumbent, evaluation.hpp): report() offers every result
/// to it, and the default best()/best_objective() read it. Both stay
/// virtual because a decorator (SequentialBatchAdapter,
/// engine::SpeculativeNelderMead, bench_gate's SlowedStrategy, the perf
/// ledger's TimedStrategy) reports to the strategy it wraps, never to its
/// own incumbent_, and so must forward them. The run's incumbent, which the
/// server and Session report, is the controller's (History::best()).
///
/// Strategies are constructed by name through StrategyRegistry
/// (strategy_registry.hpp) — the single construction path used by sessions,
/// the server's STRATEGY protocol verb, benches and examples.

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/evaluation.hpp"
#include "core/param_space.hpp"
#include "core/types.hpp"

namespace harmony {

/// The strategy contract the controller drives. One batch is a set of
/// candidates whose evaluations may run concurrently; the controller reports
/// the whole batch back in order.
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

  /// True once the strategy considers the search finished.
  [[nodiscard]] virtual bool converged() const = 0;

  /// Best configuration reported so far, read from incumbent_ (nullopt
  /// before any valid report). A decorator that wraps another strategy
  /// never offers to its own incumbent_, so it must forward both calls.
  [[nodiscard]] virtual std::optional<Config> best() const {
    return incumbent_.config();
  }
  /// Objective of best(); +inf before any valid report.
  [[nodiscard]] virtual double best_objective() const { return incumbent_.value(); }

  /// Short identifier for logs ("nelder-mead", "random", ...).
  [[nodiscard]] virtual std::string name() const = 0;

 protected:
  /// Each strategy offers every reported result here, so the
  /// strict-improvement rule is Incumbent's alone.
  Incumbent incumbent_;
};

/// A strategy that proposes one configuration at a time. Unless a subclass
/// overrides propose_batch(), it emits batches of at most one, so propose()
/// and report() alternate strictly however the controller drives it.
class SearchStrategy : public BatchSearchStrategy {
 public:
  /// Next configuration the strategy wants evaluated, or nullopt when the
  /// strategy has converged / exhausted its plan.
  [[nodiscard]] virtual std::optional<Config> propose() = 0;

  /// Report the evaluation of the most recently proposed configuration.
  virtual void report(const Config& c, const EvaluationResult& r) = 0;

  /// At most one propose(); nothing at all for max_n == 0.
  [[nodiscard]] std::vector<Config> propose_batch(std::size_t max_n) override {
    return propose_up_to(std::min<std::size_t>(max_n, 1));
  }

  /// report() per element, in order. Throws std::invalid_argument when the
  /// two vectors differ in length.
  void report_batch(const std::vector<Config>& configs,
                    const std::vector<EvaluationResult>& results) override {
    if (configs.size() != results.size()) {
      throw std::invalid_argument(name() + ": batch size mismatch");
    }
    for (std::size_t i = 0; i < configs.size(); ++i) report(configs[i], results[i]);
  }

 protected:
  /// Up to `n` consecutive propose() calls, stopping at the first nullopt.
  /// A strategy whose proposals never depend on reports returns this from
  /// propose_batch(n): reporting the batch afterwards, in order, gives the
  /// serial trajectory.
  [[nodiscard]] std::vector<Config> propose_up_to(std::size_t n) {
    std::vector<Config> batch;
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto c = propose();
      if (!c) break;
      batch.push_back(std::move(*c));
    }
    return batch;
  }
};

/// Non-owning batch view of a serial strategy, with the same behaviour as
/// SearchStrategy's own propose_batch()/report_batch(). Nothing in the
/// library needs it any more; it stays, unchanged, for the perf ledger's
/// offline_pop workload, which wraps NelderMead in it.
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
