#pragma once

/// \file worker_backend.hpp
/// EvalBackend that measures candidates on the remote worker fleet: every
/// candidate of a batch is dispatched through the fleet Dispatcher, which
/// fans them out across every attached worker process. The backend keeps no
/// memo of its own; a caller that wants repeats kept off the wire passes an
/// EvalCache to the SearchController. Plugging this into SearchController
/// turns any strategy into a fleet-distributed search with no controller
/// changes — the same seam the serial and thread-pool backends use.

#include <cstddef>
#include <vector>

#include "core/controller.hpp"
#include "fleet/dispatcher.hpp"

namespace harmony::fleet {

class WorkerEvalBackend final : public EvalBackend {
 public:
  /// `dispatcher` must outlive the backend.
  explicit WorkerEvalBackend(Dispatcher& dispatcher) : dispatcher_(&dispatcher) {}

  [[nodiscard]] std::vector<EvalOutcome> evaluate(const std::vector<Config>& batch,
                                                  const Context& ctx) override;

  /// The fleet's live total capacity (at least 1), so the controller asks
  /// strategies for exactly what the fleet can absorb at once.
  [[nodiscard]] std::size_t concurrency() const override;

 private:
  Dispatcher* dispatcher_;
};

}  // namespace harmony::fleet
