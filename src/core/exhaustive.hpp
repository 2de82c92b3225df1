#pragma once

/// \file exhaustive.hpp
/// Full enumeration of a discrete search space. Only sensible for small
/// spaces (tests and ground-truth verification of the other strategies);
/// construction throws if the space is continuous or larger than a limit.

#include <cstdint>
#include <optional>
#include <vector>

#include "core/strategy.hpp"

namespace harmony {

class Exhaustive final : public SearchStrategy {
 public:
  explicit Exhaustive(const ParamSpace& space,
                      std::uint64_t max_points = 1'000'000);

  [[nodiscard]] std::optional<Config> propose() override;
  void report(const Config& c, const EvaluationResult& r) override;
  /// Proposals never depend on reports: up to max_n of them at once.
  [[nodiscard]] std::vector<Config> propose_batch(std::size_t max_n) override {
    return propose_up_to(max_n);
  }
  [[nodiscard]] bool converged() const override;
  [[nodiscard]] std::string name() const override { return "exhaustive"; }

  [[nodiscard]] std::uint64_t plan_size() const noexcept { return plan_size_; }

 private:
  const ParamSpace* space_;
  std::vector<std::size_t> cursor_;
  std::uint64_t plan_size_ = 1;
  std::uint64_t emitted_ = 0;
  bool exhausted_ = false;
};

}  // namespace harmony
