#include "core/session.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

#include "core/strategy_registry.hpp"
#include "obs/metrics.hpp"

namespace harmony {

Session::Session(std::string app_name) : app_name_(std::move(app_name)) {
  nm_opts_.max_stall = 30;
  nm_opts_.max_restarts = 2;
}

Session::~Session() = default;

std::size_t Session::add_int(const std::string& name, std::int64_t lo,
                             std::int64_t hi, std::int64_t step,
                             std::int64_t* bound) {
  if (strategy_) throw std::logic_error("Session: add after first fetch");
  space_.add(Parameter::Integer(name, lo, hi, step));
  Binding b;
  b.i = bound;
  bindings_.push_back(b);
  return space_.dim() - 1;
}

std::size_t Session::add_real(const std::string& name, double lo, double hi,
                              double* bound) {
  if (strategy_) throw std::logic_error("Session: add after first fetch");
  space_.add(Parameter::Real(name, lo, hi));
  Binding b;
  b.r = bound;
  bindings_.push_back(b);
  return space_.dim() - 1;
}

std::size_t Session::add_enum(const std::string& name,
                              std::vector<std::string> choices,
                              std::string* bound) {
  if (strategy_) throw std::logic_error("Session: add after first fetch");
  space_.add(Parameter::Enum(name, std::move(choices)));
  Binding b;
  b.s = bound;
  bindings_.push_back(b);
  return space_.dim() - 1;
}

void Session::set_strategy(StrategyFactory factory) {
  if (strategy_) throw std::logic_error("Session: set_strategy after first fetch");
  factory_ = std::move(factory);
}

void Session::set_nelder_mead_options(NelderMeadOptions opts) {
  if (strategy_) throw std::logic_error("Session: options after first fetch");
  nm_opts_ = opts;
}

void Session::ensure_strategy() {
  if (strategy_) return;
  if (space_.empty()) throw std::logic_error("Session: no tunable variables added");
  if (factory_) {
    strategy_ = factory_(space_);
    if (!strategy_) throw std::logic_error("Session: strategy factory returned null");
  } else {
    strategy_ = StrategyRegistry::make_default(space_, nm_opts_);
  }
  // The application measures in its own main loop, so the session drives the
  // controller's incremental ask/tell surface; the strategy decides when to
  // stop, not an iteration budget.
  constexpr int kUnbounded = std::numeric_limits<int>::max();
  controller_ = std::make_unique<SearchController>(
      space_, ControllerLimits{kUnbounded, kUnbounded});
}

void Session::write_bound(const Config& c) {
  for (std::size_t i = 0; i < bindings_.size(); ++i) {
    const auto& b = bindings_[i];
    const auto& v = c.values[i];
    if (b.i != nullptr) *b.i = std::get<std::int64_t>(v);
    if (b.r != nullptr) *b.r = std::get<double>(v);
    if (b.s != nullptr) *b.s = std::get<std::string>(v);
  }
}

bool Session::fetch() {
  ensure_strategy();
  if (awaiting_report_) {
    throw std::logic_error("Session::fetch: report() the previous candidate first");
  }
  const Config* proposal = controller_->ask(*strategy_);
  if (proposal == nullptr) {
    // Converged: leave the best configuration in the bound variables.
    if (const HistoryEntry* b = controller_->best()) {
      current_ = b->config;
      write_bound(b->config);
    }
    return false;
  }
  ++fetches_;
  obs::count<"session.fetches">();
  current_ = *proposal;
  write_bound(*current_);
  awaiting_report_ = true;
  return true;
}

void Session::report(double performance) {
  if (!awaiting_report_) {
    throw std::logic_error("Session::report without a pending fetch()");
  }
  awaiting_report_ = false;
  obs::count<"session.reports">();
  EvaluationResult r;
  r.objective = performance;
  controller_->tell(*strategy_, std::move(r));
}

bool Session::report_and_fetch(double performance) {
  report(performance);
  return fetch();
}

const History& Session::history() const {
  if (!controller_) throw std::logic_error("Session: no history before first fetch");
  return controller_->history();
}

const Config& Session::current() const {
  if (!current_) throw std::logic_error("Session::current before first fetch");
  return *current_;
}

std::optional<Config> Session::best() const {
  const HistoryEntry* b = controller_ ? controller_->best() : nullptr;
  return b != nullptr ? std::optional<Config>(b->config) : std::nullopt;
}

double Session::best_performance() const {
  if (!controller_) throw std::logic_error("Session: no strategy yet");
  const HistoryEntry* b = controller_->best();
  return b != nullptr ? b->result.objective : std::numeric_limits<double>::infinity();
}

bool Session::converged() const { return strategy_ && strategy_->converged(); }

std::int64_t Session::get_int(std::size_t handle) const {
  return std::get<std::int64_t>(current().values.at(handle));
}

double Session::get_real(std::size_t handle) const {
  return std::get<double>(current().values.at(handle));
}

const std::string& Session::get_enum(std::size_t handle) const {
  return std::get<std::string>(current().values.at(handle));
}

}  // namespace harmony
