#pragma once

/// \file pool_backend.hpp
/// Thread-pool EvalBackend for the SearchController: measures a whole batch
/// of candidate configurations concurrently with representative short runs.
/// With the cache on, the batch is first resolved on the calling thread
/// against a single-threaded EvalCache: points stored by an earlier batch
/// are hits, and a repeat inside the batch shares its first occurrence's
/// run, so each distinct configuration costs one short run. Only the
/// distinct misses are dispatched: one runs on the calling thread (counted
/// as engine.pool.inline), more go to the pool. Runs record their trace
/// events from the threads that execute them, so an exported Chrome trace
/// shows one lane per pool worker; hits and repeats are recorded on the
/// calling thread.

#include <cstddef>
#include <utility>
#include <vector>

#include "core/controller.hpp"
#include "core/flat_map.hpp"
#include "core/param_space.hpp"
#include "core/point_key.hpp"
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

  /// Called from one thread only (the controller's); EvalCache asserts it in
  /// Debug builds.
  [[nodiscard]] std::vector<EvalOutcome> evaluate(const std::vector<Config>& batch,
                                                  const Context& ctx) override;

  [[nodiscard]] std::size_t concurrency() const override { return batch_cap_; }
  [[nodiscard]] bool traces() const override { return true; }
  [[nodiscard]] std::size_t cache_hits() const override { return cache_.hits(); }
  [[nodiscard]] std::size_t cache_coalesced() const override { return coalesced_; }

 private:
  /// One short run of `c`, traced from the thread that executes it.
  EvalOutcome launch(const Config& c, const Context& ctx) const;

  const ParamSpace* space_;
  const ShortRunFn* run_;
  int steps_;
  double restart_overhead_s_;
  bool use_cache_;
  std::size_t batch_cap_;
  EvalCache cache_;
  std::size_t coalesced_ = 0;  ///< in-batch repeats served by a first run

  // Per-batch scratch, kept across batches so it is not reallocated.
  std::vector<std::size_t> miss_at_;    ///< batch index of each distinct miss
  std::vector<PointKey> miss_keys_;     ///< key of each miss; next slot is scratch
  FlatPointMap<std::size_t> first_at_;  ///< key -> batch index of its first miss
  std::vector<std::pair<std::size_t, std::size_t>> repeats_;  ///< (slot, first)

  ThreadPool pool_;
};

}  // namespace harmony::engine
