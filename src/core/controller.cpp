#include "core/controller.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/status.hpp"
#include "obs/trace.hpp"

namespace harmony {

SerialEvalBackend::SerialEvalBackend(const Evaluator& evaluate)
    : evaluate_(&evaluate) {
  if (!evaluate) throw std::invalid_argument("SerialEvalBackend: null evaluator");
}

std::vector<EvalOutcome> SerialEvalBackend::evaluate(const std::vector<Config>& batch,
                                                     const Context& /*ctx*/) {
  std::vector<EvalOutcome> out;
  out.reserve(batch.size());
  for (const auto& c : batch) {
    EvalOutcome o;
    o.result = (*evaluate_)(c);
    out.push_back(std::move(o));
  }
  return out;
}

ShortRunEvalBackend::ShortRunEvalBackend(const ShortRunFn& run, int steps,
                                         double restart_overhead_s)
    : run_(&run), steps_(steps), restart_overhead_s_(restart_overhead_s) {
  if (!run) throw std::invalid_argument("ShortRunEvalBackend: null run function");
  if (steps < 1) throw std::invalid_argument("ShortRunEvalBackend: steps < 1");
  if (restart_overhead_s < 0) {
    throw std::invalid_argument("ShortRunEvalBackend: negative restart overhead");
  }
}

std::vector<EvalOutcome> ShortRunEvalBackend::evaluate(const std::vector<Config>& batch,
                                                       const Context& /*ctx*/) {
  std::vector<EvalOutcome> out;
  out.reserve(batch.size());
  for (const auto& c : batch) {
    const ShortRunResult r = (*run_)(c, steps_);
    EvalOutcome o;
    o.cost_s = restart_overhead_s_ + r.warmup_s + r.measured_s;
    o.result.valid = r.ok;
    o.result.objective =
        r.ok ? r.measured_s : std::numeric_limits<double>::infinity();
    o.result.metrics["warmup_s"] = r.warmup_s;
    obs::count<"offline.runs">();
    obs::observe<"offline.short_run_s">(r.warmup_s + r.measured_s);
    out.push_back(std::move(o));
  }
  return out;
}

namespace {

// Strategies order results by objective; a NaN would break that ordering
// (std::stable_sort needs a strict weak order), and an infinite objective
// already means infeasible. Every backend's measurements and every tell()
// pass through here.
void reject_non_finite(EvaluationResult& r) {
  if (!std::isfinite(r.objective)) r.valid = false;
}

}  // namespace

SearchController::SearchController(const ParamSpace& space, ControllerLimits limits,
                                   ControllerHooks /*hooks*/,
                                   obs::SearchTracer* tracer, EvalCache* cache)
    : space_(&space),
      limits_(limits),
      tracer_(tracer),
      cache_(cache),
      history_(space) {
  if (limits.max_evaluations < 1) {
    throw std::invalid_argument("SearchController: max_evaluations < 1");
  }
  if (limits.max_proposals < 1) {
    throw std::invalid_argument("SearchController: max_proposals < 1");
  }
}

ControllerResult SearchController::run(BatchSearchStrategy& strategy,
                                       EvalBackend& backend) {
  ControllerResult out;
  const std::string strategy_name = strategy.name();
  const std::size_t batch_cap = std::max<std::size_t>(1, backend.concurrency());

  EvalBackend::Context ctx;
  ctx.space = space_;
  ctx.tracer = tracer_;
  ctx.strategy_name = strategy_name;

  // Live-status slot, published only while observability is on, so the
  // disabled path costs one relaxed load here.
  obs::StatusRegistry::SessionHandle status;
  if (obs::enabled()) {
    static std::atomic<std::uint64_t> next_id{0};
    status = obs::StatusRegistry::global().publish_session(
        "run/" + std::to_string(next_id.fetch_add(1)));
    status.update([&](obs::SessionStatus& s) { s.strategy = strategy_name; });
  }

  while (evaluations_ < limits_.max_evaluations &&
         proposals_ < limits_.max_proposals) {
    // Budget guard: never ask for (and never dispatch) more candidates than
    // the remaining distinct-evaluation budget, so the cap holds even with a
    // whole batch in flight. Cached entries consume no budget; any slack
    // this reservation leaves is available again next batch.
    const std::size_t want =
        std::min(batch_cap,
                 static_cast<std::size_t>(limits_.max_evaluations - evaluations_));
    auto batch = strategy.propose_batch(want);
    if (batch.empty()) break;
    if (batch.size() > want) batch.resize(want);  // defensive prefix cut
    proposals_ += static_cast<int>(batch.size());
    ++out.batches;

    // Resolve the batch against the controller cache; only misses reach the
    // backend (element order within the miss sub-batch is preserved). All
    // bookkeeping lives in reused scratch: each candidate's PointKey is
    // derived once, straight into the next free miss_keys slot, and reused
    // for the lookup and the post-measurement store; no per-batch vector or
    // key is reallocated in steady state.
    auto& outcomes = scratch_.outcomes;
    auto& t_start_us = scratch_.t_start_us;
    auto& miss_at = scratch_.miss_at;
    auto& miss_keys = scratch_.miss_keys;
    outcomes.clear();
    outcomes.resize(batch.size());
    t_start_us.assign(batch.size(), 0.0);
    miss_at.clear();
    const std::size_t hits_before = cache_hits_;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      t_start_us[i] = tracer_ != nullptr ? tracer_->now_us() : 0.0;
      if (cache_ != nullptr) {
        if (miss_keys.size() == miss_at.size()) miss_keys.emplace_back();
        PointKey& key = miss_keys[miss_at.size()];
        key.assign(*space_, batch[i]);
        if (const EvaluationResult* cached = cache_->lookup(key)) {
          outcomes[i].result = *cached;
          outcomes[i].ran = false;
          ++cache_hits_;
          continue;
        }
      }
      miss_at.push_back(i);
    }
    if (obs::enabled()) {
      obs::count<"controller.batches">();
      obs::count<"controller.proposals">(batch.size());
      if (cache_hits_ != hits_before) {
        obs::count<"controller.cache_hits">(cache_hits_ - hits_before);
      }
    }
    if (!miss_at.empty()) {
      // An all-miss batch (every serial batch, and every batch without a
      // controller cache) goes to the backend as it is.
      const bool all_miss = miss_at.size() == batch.size();
      if (!all_miss) {
        scratch_.misses.clear();
        for (const std::size_t i : miss_at) scratch_.misses.push_back(batch[i]);
      }
      const std::vector<Config>& misses = all_miss ? batch : scratch_.misses;
      auto measured = backend.evaluate(misses, ctx);
      if (measured.size() != misses.size()) {
        throw std::logic_error("SearchController: backend batch size mismatch");
      }
      for (std::size_t m = 0; m < misses.size(); ++m) {
        EvalOutcome& o = outcomes[miss_at[m]];
        o = std::move(measured[m]);
        reject_non_finite(o.result);
        if (cache_ != nullptr && o.ran) cache_->store(miss_keys[m], o.result);
      }
    }

    auto& results = scratch_.results;
    results.clear();
    results.resize(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const EvalOutcome& o = outcomes[i];
      if (tracer_ != nullptr && !backend.traces()) {
        tracer_->record({strategy_name, space_->format(batch[i]),
                         o.result.objective, o.result.valid,
                         /*cache_hit=*/!o.ran, /*thread_lane=*/0, t_start_us[i],
                         tracer_->now_us()});
      }
      if (o.ran) {
        ++evaluations_;
        out.total_cost_s += o.cost_s;
      }
      results[i] = o.result;
    }
    // Report first, then move each config into History, as tell() does: the
    // strategy needs the batch intact, and History then takes it copy-free.
    strategy.report_batch(batch, results);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const EvalOutcome& o = outcomes[i];
      // Speculative (model-predicted) outcomes reach the strategy only:
      // History, and so the incumbent, records measurements exclusively.
      if (!o.speculative) {
        history_.record(std::move(batch[i]), o.result, /*cached=*/!o.ran);
      }
    }

    if (status.valid()) {
      status.update([&](obs::SessionStatus& s) {
        s.phase = "batch " + std::to_string(out.batches);
        s.iterations = static_cast<std::uint64_t>(evaluations_);
        s.cache_hits =
            static_cast<std::uint64_t>(cache_hits_ + backend.cache_hits());
        if (const HistoryEntry* b = history_.best()) {
          s.best_value = b->result.objective;
          s.best_config = space_->format(b->config);
        }
      });
    }
  }

  out.strategy_converged = strategy.converged();
  if (const HistoryEntry* b = history_.best()) {
    out.best = b->config;
    out.best_result = b->result;
    out.best_objective = b->result.objective;
  }
  out.evaluations = evaluations_;
  out.proposals = proposals_;
  out.cache_hits = cache_hits_;
  return out;
}

const Config* SearchController::ask(SearchStrategy& strategy) {
  if (pending_) return &*pending_;  // idempotent re-ask of the outstanding point
  if (evaluations_ >= limits_.max_evaluations) return nullptr;
  if (proposals_ >= limits_.max_proposals) return nullptr;
  pending_ = strategy.propose();
  if (!pending_) return nullptr;
  ++proposals_;
  return &*pending_;
}

void SearchController::tell(SearchStrategy& strategy, EvaluationResult r) {
  if (!pending_) {
    throw std::logic_error("SearchController::tell without a pending ask");
  }
  reject_non_finite(r);
  if (tracer_ != nullptr) {
    const double now = tracer_->now_us();
    tracer_->record({strategy.name(), space_->format(*pending_), r.objective,
                     r.valid, /*cache_hit=*/false, /*thread_lane=*/0, now, now});
  }
  ++evaluations_;
  // Report first, then move the pending config into History — the strategy
  // needs the config intact, and handing History our copy makes the whole
  // tell() round trip Config-copy-free.
  strategy.report(*pending_, r);
  history_.record(std::move(*pending_), r, /*cached=*/false);
  pending_.reset();
}

}  // namespace harmony
