#pragma once

/// \file harmony.hpp
/// Umbrella header for the Active Harmony reproduction's tuning core.
/// Include this to get the whole public API:
///
///   harmony::ParamSpace space;
///   space.add(harmony::Parameter::Integer("block_x", 15, 1800));
///   harmony::NelderMead search(space);
///   harmony::EvalCache cache(space);
///   harmony::SearchController controller(space, {100, 100000}, {}, nullptr,
///                                        &cache);
///   const harmony::Evaluator evaluate = [&](const harmony::Config& c) { ... };
///   harmony::SerialEvalBackend backend(evaluate);
///   auto result = controller.run(search, backend);

#include "core/client.hpp"
#include "core/constraint.hpp"
#include "core/controller.hpp"
#include "core/coordinate_descent.hpp"
#include "core/evaluation.hpp"
#include "core/exhaustive.hpp"
#include "core/genetic_search.hpp"
#include "core/history.hpp"
#include "core/nelder_mead.hpp"
#include "core/flat_map.hpp"
#include "core/param_space.hpp"
#include "core/parameter.hpp"
#include "core/point_key.hpp"
#include "core/protocol.hpp"
#include "core/random_search.hpp"
#include "core/report.hpp"
#include "core/rng.hpp"
#include "core/server.hpp"
#include "core/session.hpp"
#include "core/simulated_annealing.hpp"
#include "core/strategy.hpp"
#include "core/strategy_registry.hpp"
#include "core/systematic_sampler.hpp"
#include "core/types.hpp"
