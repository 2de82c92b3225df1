#pragma once

/// \file pool_backend.hpp
/// Thread-pool EvalBackend for the SearchController: measures a whole batch
/// of candidate configurations concurrently with representative short runs.
/// Every element of a larger batch is submitted to the pool; a batch of one
/// runs on the calling thread (counted as engine.pool.inline). A concurrent
/// memoizing cache with in-flight deduplication makes duplicate
/// configurations (inside one batch or across batches) cost a single short
/// run. Trace events are recorded from the threads that run the
/// evaluations, so an exported Chrome trace shows one lane per pool worker.

#include <cstddef>

#include "core/controller.hpp"
#include "core/param_space.hpp"
#include "engine/eval_cache.hpp"
#include "engine/thread_pool.hpp"

namespace harmony::engine {

class PoolEvalBackend final : public EvalBackend {
 public:
  /// `run` is not owned and must outlive the backend (rvalues do not
  /// compile). `batch_cap` is what concurrency() reports — the controller's
  /// per-batch candidate cap. Throws std::invalid_argument for a null `run`,
  /// `steps < 1`, a negative restart overhead or `pool_size < 1`.
  PoolEvalBackend(const ParamSpace& space, const ShortRunFn& run, int steps,
                  double restart_overhead_s, int pool_size, std::size_t batch_cap,
                  bool use_cache);
  PoolEvalBackend(const ParamSpace&, ShortRunFn&&, int, double, int, std::size_t,
                  bool) = delete;

  [[nodiscard]] std::vector<EvalOutcome> evaluate(const std::vector<Config>& batch,
                                                  const Context& ctx) override;

  [[nodiscard]] std::size_t concurrency() const override { return batch_cap_; }
  [[nodiscard]] bool traces() const override { return true; }
  [[nodiscard]] std::size_t cache_hits() const override { return cache_.hits(); }
  [[nodiscard]] std::size_t cache_coalesced() const override {
    return cache_.coalesced();
  }

 private:
  const ShortRunFn* run_;
  int steps_;
  double restart_overhead_s_;
  bool use_cache_;
  std::size_t batch_cap_;
  ConcurrentEvalCache cache_;
  ThreadPool pool_;
};

}  // namespace harmony::engine
