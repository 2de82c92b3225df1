#include "engine/surrogate_backend.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace harmony::engine {

SurrogateEvalBackend::SurrogateEvalBackend(EvalBackend& inner, Surrogate& model,
                                           SurrogateBackendOptions opts)
    : inner_(&inner), model_(&model), opts_(opts) {
  if (opts.top_k == 0) {
    throw std::invalid_argument("SurrogateEvalBackend: top_k must be >= 1");
  }
  if (opts.rank_window < opts.top_k) {
    throw std::invalid_argument(
        "SurrogateEvalBackend: rank_window must be >= top_k");
  }
}

std::vector<EvalOutcome> SurrogateEvalBackend::evaluate(
    const std::vector<Config>& batch, const Context& ctx) {
  // Rank by predicted objective. Candidates the model abstains on rank
  // ahead of everything predicted — unknown territory must be measured.
  std::vector<std::optional<double>> predicted(batch.size());
  bool any_abstained = false;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    predicted[i] = model_->predict(batch[i]);
    any_abstained = any_abstained || !predicted[i];
  }

  std::vector<std::size_t> order(batch.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (predicted[a].has_value() != predicted[b].has_value()) {
      return !predicted[a].has_value();
    }
    if (!predicted[a]) return a < b;
    return *predicted[a] < *predicted[b];
  });

  // Forward the top-K (in original batch order, so the inner backend sees
  // the same sub-batch a prefix truncation would have produced).
  const std::size_t k =
      any_abstained ? batch.size() : std::min(opts_.top_k, batch.size());
  std::vector<bool> forward(batch.size(), false);
  for (std::size_t j = 0; j < k; ++j) forward[order[j]] = true;

  // Spend one forwarded slot on the candidate the model is least sure about
  // (largest distance to any stored sample): pure exploitation never
  // corrects the model where it is extrapolating, which is exactly where a
  // narrow optimum hides. The predicted-worst forwarded slot is traded away.
  if (k < batch.size() && k >= 2) {
    std::size_t explore = batch.size();
    double most = -1.0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (forward[i]) continue;
      const double u = model_->uncertainty(batch[i]);
      if (u > most) {
        most = u;
        explore = i;
      }
    }
    if (explore < batch.size() && most > 0.0) {
      forward[order[k - 1]] = false;
      forward[explore] = true;
    }
  }

  std::vector<Config> real;
  std::vector<std::size_t> real_at;
  real.reserve(k);
  real_at.reserve(k);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (forward[i]) {
      real.push_back(batch[i]);
      real_at.push_back(i);
    }
  }

  std::vector<EvalOutcome> out(batch.size());
  if (!real.empty()) {
    auto measured = inner_->evaluate(real, ctx);
    if (measured.size() != real.size()) {
      throw std::logic_error("SurrogateEvalBackend: inner batch size mismatch");
    }
    for (std::size_t m = 0; m < real.size(); ++m) {
      const std::size_t i = real_at[m];
      out[i] = std::move(measured[m]);
      if (out[i].ran && out[i].result.valid) {
        model_->observe(batch[i], out[i].result.objective);
        if (predicted[i] && out[i].result.objective != 0.0) {
          obs::observe<"engine.surrogate.rel_error">(
              std::abs(*predicted[i] - out[i].result.objective) /
              std::abs(out[i].result.objective));
        }
      }
    }
    forwarded_ += real.size();
    obs::count<"engine.surrogate.forwarded">(real.size());
  }

  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (forward[i]) continue;
    EvalOutcome& o = out[i];
    o.result.objective = *predicted[i];
    o.result.valid = true;
    o.result.metrics["surrogate_predicted"] = 1.0;
    o.ran = false;
    o.speculative = true;
    ++skipped_;
  }
  if (k < batch.size()) {
    obs::count<"engine.surrogate.skipped">(batch.size() - k);
  }
  return out;
}

}  // namespace harmony::engine
