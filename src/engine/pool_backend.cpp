#include "engine/pool_backend.hpp"

#include <future>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace harmony::engine {

namespace {

// Runs before any member is built, so a bad pool size never reaches the
// ThreadPool.
const ShortRunFn* checked(const ShortRunFn& run, int steps,
                          double restart_overhead_s, int pool_size) {
  if (!run) throw std::invalid_argument("PoolEvalBackend: null run function");
  if (steps < 1) throw std::invalid_argument("PoolEvalBackend: steps < 1");
  if (restart_overhead_s < 0) {
    throw std::invalid_argument("PoolEvalBackend: negative restart overhead");
  }
  if (pool_size < 1) throw std::invalid_argument("PoolEvalBackend: pool_size < 1");
  return &run;
}

void record(const EvalBackend::Context& ctx, const Config& c, const EvalOutcome& t,
            double t_start_us) {
  ctx.tracer->record({ctx.strategy_name, ctx.space->format(c), t.result.objective,
                      t.result.valid, /*cache_hit=*/!t.ran, /*thread_lane=*/0,
                      t_start_us, ctx.tracer->now_us()});
}

}  // namespace

PoolEvalBackend::PoolEvalBackend(const ParamSpace& space, const ShortRunFn& run,
                                 int steps, double restart_overhead_s,
                                 int pool_size, std::size_t batch_cap,
                                 bool use_cache)
    : space_(&space),
      run_(checked(run, steps, restart_overhead_s, pool_size)),
      steps_(steps),
      restart_overhead_s_(restart_overhead_s),
      use_cache_(use_cache),
      batch_cap_(batch_cap),
      cache_(space),
      pool_(static_cast<std::size_t>(pool_size)) {}

EvalOutcome PoolEvalBackend::launch(const Config& c, const Context& ctx) const {
  // One tuning iteration == one representative short run (Section III):
  // stop, reconfigure, restart, warm up, measure. Every component of that
  // cost is charged to the tuning bill.
  obs::SearchTracer* const tracer = ctx.tracer;
  const double t_start_us = tracer != nullptr ? tracer->now_us() : 0.0;
  const ShortRunResult r = (*run_)(c, steps_);
  obs::observe<"engine.short_run_s">(r.warmup_s + r.measured_s);
  obs::count<"engine.driver.runs">();
  EvalOutcome t;
  t.result.valid = r.ok;
  t.result.objective = r.ok ? r.measured_s : std::numeric_limits<double>::infinity();
  t.result.metrics["warmup_s"] = r.warmup_s;
  t.cost_s = restart_overhead_s_ + r.warmup_s + r.measured_s;
  if (tracer != nullptr) record(ctx, c, t, t_start_us);
  return t;
}

std::vector<EvalOutcome> PoolEvalBackend::evaluate(const std::vector<Config>& batch,
                                                   const Context& ctx) {
  obs::SearchTracer* const tracer = ctx.tracer;
  std::vector<EvalOutcome> out(batch.size());
  miss_at_.clear();
  repeats_.clear();
  if (use_cache_) {
    // Resolve the batch on this thread. Each key is derived straight into the
    // next free miss slot, which is reused when the candidate is not a miss.
    first_at_.clear();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const double t_start_us = tracer != nullptr ? tracer->now_us() : 0.0;
      if (miss_keys_.size() == miss_at_.size()) miss_keys_.emplace_back();
      PointKey& key = miss_keys_[miss_at_.size()];
      key.assign(*space_, batch[i]);
      if (const std::size_t* first = first_at_.find(key)) {
        repeats_.emplace_back(i, *first);
        continue;
      }
      if (const EvaluationResult* hit = cache_.lookup(key)) {
        obs::count<"engine.cache.hits">();
        out[i].result = *hit;
        out[i].ran = false;
        if (tracer != nullptr) record(ctx, batch[i], out[i], t_start_us);
        continue;
      }
      obs::count<"engine.cache.misses">();
      first_at_.insert_or_assign(key, i);
      miss_at_.push_back(i);
    }
  } else {
    for (std::size_t i = 0; i < batch.size(); ++i) miss_at_.push_back(i);
  }

  // A single miss has nothing to overlap: handing it to a worker would only
  // add a task, a future and two wake-ups to its latency.
  if (miss_at_.size() == 1) {
    obs::count<"engine.pool.inline">();
    out[miss_at_.front()] = launch(batch[miss_at_.front()], ctx);
  } else if (!miss_at_.empty()) {
    std::vector<std::future<EvalOutcome>> futures;
    futures.reserve(miss_at_.size());
    for (const std::size_t i : miss_at_) {
      futures.push_back(
          pool_.submit([this, &c = batch[i], &ctx] { return launch(c, ctx); }));
    }
    // The tasks refer to this frame, so every one must finish before a worker
    // exception is rethrown out of it.
    for (auto& f : futures) f.wait();
    for (std::size_t m = 0; m < futures.size(); ++m) {
      out[miss_at_[m]] = futures[m].get();  // rethrows worker exceptions
    }
  }

  if (!use_cache_) return out;
  for (std::size_t m = 0; m < miss_at_.size(); ++m) {
    cache_.store(miss_keys_[m], out[miss_at_[m]].result);
  }
  for (const auto& [slot, first] : repeats_) {
    const double t_start_us = tracer != nullptr ? tracer->now_us() : 0.0;
    out[slot].result = out[first].result;
    out[slot].ran = false;  // shares the first occurrence's run
    obs::count<"engine.cache.coalesced">();
    ++coalesced_;
    if (tracer != nullptr) record(ctx, batch[slot], out[slot], t_start_us);
  }
  return out;
}

}  // namespace harmony::engine
