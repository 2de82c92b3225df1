#pragma once

/// \file controller.hpp
/// The one Adaptation Controller (paper Fig. 1) and the one tuning entry
/// point. SearchController owns the whole tuning loop — proposal budgeting
/// (distinct-evaluation vs proposal caps), EvalCache memoization, History
/// recording, SearchTracer events and obs metrics — and is parameterized by
/// an EvalBackend that knows how a candidate configuration is actually
/// measured:
///
///  * SerialEvalBackend      — call an Evaluator in-process.
///  * ShortRunEvalBackend    — one representative short run per candidate,
///                             with restart/warm-up cost accounting (the
///                             paper's off-line tuning, Section III).
///  * engine::PoolEvalBackend — dispatch a whole batch across a thread pool,
///                             memoized on the calling thread.
///
/// Every caller builds a backend and calls run():
///
///   harmony::EvalCache cache(space);
///   harmony::SearchController controller(space, {40, 40 * 64 + 256}, {},
///                                        nullptr, &cache);
///   harmony::ShortRunEvalBackend backend(run, /*steps=*/10, /*restart_s=*/0);
///   const auto result = controller.run(strategy, backend);
///
/// The controller is batch-native: it drives a BatchSearchStrategy. Every
/// serial SearchStrategy is one, proposing batches of at most one, which
/// keeps trajectories bitwise-identical to a serial loop. It also exposes an
/// incremental ask/tell surface for deployments where the measurement
/// happens elsewhere (the TCP tuning server and the in-application Session
/// facade).
///
/// The run's incumbent is History's: best() points at the History entry with
/// the lowest valid objective (Incumbent's strict-improvement rule, so a tie
/// keeps the first), and ControllerResult's best fields are filled from it.
/// The server and Session read it there, by reference. The strategy keeps
/// its own incumbent for its search under the same rule; only Nelder-Mead
/// with constraints ranks differently, by its constraint-penalized value.

#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/evaluation.hpp"
#include "core/history.hpp"
#include "core/param_space.hpp"
#include "core/point_key.hpp"
#include "core/strategy.hpp"
#include "core/types.hpp"

namespace harmony::obs {
class SearchTracer;
}  // namespace harmony::obs

namespace harmony {

/// One representative short run of the application under configuration `c`,
/// executing `steps` time steps. Returns per-run measurements.
struct ShortRunResult {
  double measured_s = 0.0;  ///< time of the measured region (the objective)
  double warmup_s = 0.0;    ///< time spent warming up before measurement
  bool ok = true;           ///< false when the run failed under this config
};

using ShortRunFn = std::function<ShortRunResult(const Config&, int steps)>;

/// Outcome of measuring one candidate through an EvalBackend.
struct EvalOutcome {
  EvaluationResult result;
  bool ran = true;      ///< a fresh evaluation happened (charges the budget)
  double cost_s = 0.0;  ///< tuning cost charged when ran (restart+warmup+run)

  /// True when `result` is a model prediction rather than a measurement
  /// (engine::SurrogateEvalBackend skipping a low-ranked candidate). The
  /// controller reports a speculative result to the strategy — that is the
  /// whole point of pre-ranking — but never lets it charge the budget,
  /// enter the cache, or land in History (so it never becomes the
  /// incumbent). No backend sets this by default, so trajectories without a
  /// surrogate are untouched.
  bool speculative = false;
};

/// How candidates get measured. The backend owns the evaluation side of the
/// loop: launching runs, backend-level caching, per-run metrics
/// and (for concurrent backends) per-worker trace events.
class EvalBackend {
 public:
  virtual ~EvalBackend() = default;

  struct Context {
    const ParamSpace* space = nullptr;
    obs::SearchTracer* tracer = nullptr;
    std::string strategy_name;
  };

  /// Measure every configuration in `batch`, element-wise.
  [[nodiscard]] virtual std::vector<EvalOutcome> evaluate(
      const std::vector<Config>& batch, const Context& ctx) = 0;

  /// How many candidates the backend can usefully measure at once — the
  /// controller never asks a strategy for a larger batch.
  [[nodiscard]] virtual std::size_t concurrency() const { return 1; }

  /// True when the backend records trace events itself (concurrent backends
  /// trace from their workers); the controller then does not double-record.
  [[nodiscard]] virtual bool traces() const { return false; }

  /// Backend-level cache statistics (0 for backends without a cache).
  [[nodiscard]] virtual std::size_t cache_hits() const { return 0; }
  [[nodiscard]] virtual std::size_t cache_coalesced() const { return 0; }
};

/// In-process evaluation of an Evaluator callback.
class SerialEvalBackend final : public EvalBackend {
 public:
  /// `evaluate` is not owned and must outlive the backend; a temporary would
  /// dangle, so rvalues do not compile.
  explicit SerialEvalBackend(const Evaluator& evaluate);
  explicit SerialEvalBackend(Evaluator&&) = delete;

  [[nodiscard]] std::vector<EvalOutcome> evaluate(const std::vector<Config>& batch,
                                                  const Context& ctx) override;

 private:
  const Evaluator* evaluate_;
};

/// One representative short run per candidate (paper Section III): stop the
/// application, apply the configuration, restart, warm up, measure. Every
/// component of that cost is charged to the tuning bill. Counts
/// offline.runs and observes offline.short_run_s per fresh run.
class ShortRunEvalBackend final : public EvalBackend {
 public:
  /// `run` is not owned and must outlive the backend (rvalues do not
  /// compile). Throws std::invalid_argument for a null `run`, `steps < 1` or
  /// a negative restart overhead.
  ShortRunEvalBackend(const ShortRunFn& run, int steps, double restart_overhead_s);
  ShortRunEvalBackend(ShortRunFn&&, int, double) = delete;

  [[nodiscard]] std::vector<EvalOutcome> evaluate(const std::vector<Config>& batch,
                                                  const Context& ctx) override;

 private:
  const ShortRunFn* run_;
  int steps_;
  double restart_overhead_s_;
};

/// Budgets for one controller run.
struct ControllerLimits {
  /// Budget of *distinct* evaluations (cache misses). The paper reports
  /// tuning cost in these units ("27 iterations", "120 tuning steps").
  int max_evaluations = 100;

  /// Hard cap on strategy proposals, cached or not, as a loop guard.
  int max_proposals = 100000;
};

/// Empty: kept only so existing callers that pass `{}` as the third
/// constructor argument still compile.
struct ControllerHooks {};

struct ControllerResult {
  std::optional<Config> best;
  EvaluationResult best_result;  ///< result recorded for the final incumbent
  /// Objective of the incumbent; +inf when nothing valid was observed.
  double best_objective = std::numeric_limits<double>::infinity();
  int evaluations = 0;           ///< distinct (budget-charged) evaluations
  int proposals = 0;             ///< total strategy proposals served
  int batches = 0;               ///< batches dispatched to the backend
  double total_cost_s = 0.0;     ///< summed backend cost (restart+warmup+run)
  std::size_t cache_hits = 0;    ///< controller-cache hits
  bool strategy_converged = false;
};

class SearchController {
 public:
  /// `cache` (not owned, may be null) is the controller-level memoization
  /// table; null disables it. It serves points measured by earlier batches;
  /// a repeat inside one batch still reaches the backend. The thread-pool
  /// backend with its own cache on runs without one, so every candidate
  /// reaches that cache. The fleet backend keeps no memo, so a fleet run
  /// that wants repeats kept off the wire passes one here. While
  /// observability is on, run() counts controller.proposals,
  /// controller.batches and controller.cache_hits and publishes a live-status
  /// slot "run/<n>" whose phase reads "batch K".
  SearchController(const ParamSpace& space, ControllerLimits limits,
                   ControllerHooks hooks = {}, obs::SearchTracer* tracer = nullptr,
                   EvalCache* cache = nullptr);

  /// Drive the full loop: propose a batch, resolve it against the cache,
  /// measure the misses through the backend, record history, report back.
  ControllerResult run(BatchSearchStrategy& strategy, EvalBackend& backend);

  /// Incremental surface for deployments that measure elsewhere (tuning
  /// server, in-application Session). ask() points at the outstanding
  /// proposal (valid until the tell() that answers it), is idempotent while
  /// one is outstanding, and returns null once the evaluation budget is
  /// spent or the strategy stops proposing; tell() feeds the measurement
  /// back and records it in History. Both loops mark a non-finite objective
  /// invalid before the strategy, the cache or History sees it.
  [[nodiscard]] const Config* ask(SearchStrategy& strategy);
  void tell(SearchStrategy& strategy, EvaluationResult r);
  [[nodiscard]] bool awaiting_tell() const { return pending_.has_value(); }

  /// The run's incumbent (History::best()): null while nothing valid has
  /// been measured. Invalidated by the next tell() or batch.
  [[nodiscard]] const HistoryEntry* best() const noexcept { return history_.best(); }

  [[nodiscard]] int evaluations() const { return evaluations_; }
  [[nodiscard]] int proposals() const { return proposals_; }

  [[nodiscard]] const History& history() const { return history_; }
  [[nodiscard]] History take_history() { return std::move(history_); }

 private:
  const ParamSpace* space_;
  ControllerLimits limits_;
  obs::SearchTracer* tracer_;
  EvalCache* cache_;
  History history_;

  int evaluations_ = 0;
  int proposals_ = 0;
  std::size_t cache_hits_ = 0;
  std::optional<Config> pending_;  // ask/tell: proposal awaiting its result

  // Batch-loop scratch, reused across iterations so the steady-state loop
  // allocates only what grows the tables (the vectors keep their capacity
  // and PointKeys keep their slot storage between batches).
  struct BatchScratch {
    std::vector<EvalOutcome> outcomes;
    std::vector<double> t_start_us;
    std::vector<Config> misses;            ///< misses of a mixed batch, in order
    std::vector<std::size_t> miss_at;      ///< batch index of each miss
    /// Index-space key of miss m at [m], then one slot the next candidate is
    /// derived into. Entries outlive the batch, so a key wider than
    /// PointKey's inline slots keeps its heap block.
    std::vector<PointKey> miss_keys;
    std::vector<EvaluationResult> results; ///< per-slot results for report_batch
  };
  BatchScratch scratch_;
};

}  // namespace harmony
