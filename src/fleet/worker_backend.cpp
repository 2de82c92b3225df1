#include "fleet/worker_backend.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace harmony::fleet {

std::size_t WorkerEvalBackend::concurrency() const {
  return std::max<std::size_t>(1, dispatcher_->total_capacity());
}

std::vector<EvalOutcome> WorkerEvalBackend::evaluate(
    const std::vector<Config>& batch, const Context& /*ctx*/) {
  obs::count<"fleet.batches">();
  return dispatcher_->run_batch(batch);
}

}  // namespace harmony::fleet
