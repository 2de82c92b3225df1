#pragma once

/// \file session.hpp
/// The on-line tuning API (paper Sections II-III): an application registers
/// its tunable variables, then alternates fetch() / report() around its main
/// loop. fetch() writes the server's next candidate values straight into the
/// application's own variables (mirroring harmony_add_variable binding in
/// Active Harmony), report() feeds back the observed performance. "Minimal
/// changes to the application" — the paper quotes about 10 lines per PETSc
/// example — is the design goal of this surface.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "core/evaluation.hpp"
#include "core/nelder_mead.hpp"
#include "core/param_space.hpp"
#include "core/strategy.hpp"

namespace harmony {

class Session {
 public:
  explicit Session(std::string app_name);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Register tunable variables. `bound` may be null; when non-null, fetch()
  /// writes the candidate value into it. Returns the variable handle.
  std::size_t add_int(const std::string& name, std::int64_t lo, std::int64_t hi,
                      std::int64_t step = 1, std::int64_t* bound = nullptr);
  std::size_t add_real(const std::string& name, double lo, double hi,
                       double* bound = nullptr);
  std::size_t add_enum(const std::string& name, std::vector<std::string> choices,
                       std::string* bound = nullptr);

  /// Optionally replace the default Nelder-Mead strategy. Must be called
  /// before the first fetch(). The factory receives the finished space.
  using StrategyFactory =
      std::function<std::unique_ptr<SearchStrategy>(const ParamSpace&)>;
  void set_strategy(StrategyFactory factory);
  void set_nelder_mead_options(NelderMeadOptions opts);

  /// Pull the next candidate configuration; returns false when tuning has
  /// converged (bound variables then hold the best-known values).
  bool fetch();

  /// Report the performance (to minimize) observed under the configuration
  /// delivered by the last fetch().
  void report(double performance);

  /// report() + fetch() in one call — the in-process mirror of the wire
  /// protocol's combined REPORT+FETCH verb, so a main loop body is just
  /// `while (s.report_and_fetch(t)) { t = run_step(); }` after the first
  /// fetch(). Returns false when tuning has converged.
  bool report_and_fetch(double performance);

  [[nodiscard]] const ParamSpace& space() const noexcept { return space_; }
  [[nodiscard]] const Config& current() const;
  /// The controller's incumbent: the first configuration reported with the
  /// lowest valid performance (nullopt / +inf before one).
  [[nodiscard]] std::optional<Config> best() const;
  [[nodiscard]] double best_performance() const;
  [[nodiscard]] bool converged() const;
  [[nodiscard]] int fetches() const noexcept { return fetches_; }
  [[nodiscard]] const std::string& app_name() const noexcept { return app_name_; }

  /// Evaluation history recorded by the controller (one entry per completed
  /// fetch/report round trip).
  [[nodiscard]] const History& history() const;

  // Typed accessors for the current candidate (for apps that do not bind).
  [[nodiscard]] std::int64_t get_int(std::size_t handle) const;
  [[nodiscard]] double get_real(std::size_t handle) const;
  [[nodiscard]] const std::string& get_enum(std::size_t handle) const;

 private:
  void ensure_strategy();
  void write_bound(const Config& c);

  struct Binding {
    std::int64_t* i = nullptr;
    double* r = nullptr;
    std::string* s = nullptr;
  };

  std::string app_name_;
  ParamSpace space_;
  std::vector<Binding> bindings_;
  StrategyFactory factory_;
  NelderMeadOptions nm_opts_;
  std::unique_ptr<SearchStrategy> strategy_;
  std::unique_ptr<SearchController> controller_;
  std::optional<Config> current_;
  bool awaiting_report_ = false;
  int fetches_ = 0;
};

}  // namespace harmony
