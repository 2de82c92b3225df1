#pragma once

/// \file engine.hpp
/// Umbrella header for the parallel evaluation engine:
///
///   harmony::ParamSpace space = ...;
///   harmony::SystematicSampler sweep(space, 8);  // core/systematic_sampler.hpp
///   harmony::engine::PoolEvalBackend pool(space, short_run, /*steps=*/10,
///                                         /*restart_s=*/0, /*pool_size=*/8,
///                                         /*batch_cap=*/8, /*use_cache=*/true);
///   harmony::SearchController controller(space, {40, 40 * 64 + 256});
///   auto result = controller.run(sweep, pool);
///
/// The engine layers on top of the core's one strategy contract: every
/// strategy is a BatchSearchStrategy, the random/systematic/exhaustive and
/// genetic searches fill whole batches, and SpeculativeNelderMead gives the
/// simplex a parallel form. The pool backend's cache is the core's
/// single-threaded EvalCache, resolved on the calling thread before dispatch.

#include "engine/batch_strategy.hpp"
#include "engine/pool_backend.hpp"
#include "engine/surrogate.hpp"
#include "engine/surrogate_backend.hpp"
#include "engine/thread_pool.hpp"
