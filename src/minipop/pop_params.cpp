#include "minipop/pop_params.hpp"

#include <algorithm>
#include <stdexcept>
#include <variant>

namespace minipop {

const std::vector<PopParamSpec>& parameter_table() {
  // Defaults follow Table II's "Default" column for the first twelve
  // parameters (num_iotasks excluded — it is the integer parameter). The
  // remaining parameters ship with their fastest value as default.
  static const std::vector<PopParamSpec> table = {
      {"hmix_momentum_choice", PopPhase::Momentum,
       {"anis", "del2", "del4"}, {1.33, 1.00, 1.13}, 0},
      {"hmix_tracer_choice", PopPhase::Tracer,
       {"gent", "del2", "del4"}, {1.26, 1.00, 1.10}, 0},
      {"kappa_choice", PopPhase::Tracer,
       {"constant", "variable"}, {1.065, 1.00}, 0},
      {"slope_control_choice", PopPhase::Tracer,
       {"notanh", "tanh", "clip"}, {1.052, 1.12, 1.00}, 0},
      {"hmix_alignment_choice", PopPhase::Momentum,
       {"east", "flow", "grid"}, {1.04, 1.08, 1.00}, 0},
      {"state_choice", PopPhase::State,
       {"jmcd", "mwjf", "polynomial", "linear"}, {1.13, 1.09, 1.04, 1.00}, 0},
      {"state_range_opt", PopPhase::State,
       {"ignore", "check", "enforce"}, {1.026, 1.08, 1.00}, 0},
      {"ws_interp_type", PopPhase::Forcing,
       {"nearest", "linear", "4point"}, {1.033, 1.016, 1.00}, 0},
      {"shf_interp_type", PopPhase::Forcing,
       {"nearest", "linear", "4point"}, {1.033, 1.016, 1.00}, 0},
      {"sfwf_interp_type", PopPhase::Forcing,
       {"nearest", "linear", "4point"}, {1.033, 1.016, 1.00}, 0},
      {"ap_interp_type", PopPhase::Forcing,
       {"nearest", "linear", "4point"}, {1.033, 1.016, 1.00}, 0},
      // Parameters already at their fastest default; tuning should not move
      // them (and moving them costs time, which the search must discover).
      {"convection_type", PopPhase::Tracer,
       {"diffusion", "adjustment"}, {1.00, 1.06}, 0},
      {"tadvect_ctype", PopPhase::Tracer,
       {"centered", "upwind3"}, {1.00, 1.12}, 0},
      {"sw_absorption_type", PopPhase::Forcing,
       {"top-layer", "jerlov"}, {1.00, 1.05}, 0},
      {"chl_option", PopPhase::Forcing,
       {"file", "model"}, {1.00, 1.10}, 0},
      {"luse_form_drag", PopPhase::Momentum,
       {"off", "on"}, {1.00, 1.12}, 0},
      {"partial_bottom_cells", PopPhase::Tracer,
       {"off", "on"}, {1.00, 1.06}, 0},
      {"topostress", PopPhase::Momentum,
       {"off", "on"}, {1.00, 1.05}, 0},
      {"lmix_surface", PopPhase::Momentum,
       {"kpp", "const"}, {1.00, 1.04}, 0},
  };
  return table;
}

harmony::ParamSpace make_param_space(int max_iotasks) {
  if (max_iotasks < 1) throw std::invalid_argument("make_param_space: bad iotasks");
  harmony::ParamSpace space;
  space.add(harmony::Parameter::Integer("num_iotasks", 1, max_iotasks));
  for (const auto& spec : parameter_table()) {
    space.add(harmony::Parameter::Enum(spec.name, spec.choices));
  }
  return space;
}

harmony::Config default_config(const harmony::ParamSpace& space) {
  harmony::Config c = space.default_config();
  space.set(c, "num_iotasks", std::int64_t{1});
  for (const auto& spec : parameter_table()) {
    space.set(c, spec.name, spec.choices[static_cast<std::size_t>(spec.default_index)]);
  }
  return c;
}

PhaseMultipliers evaluate_multipliers(const harmony::ParamSpace& space,
                                      const harmony::Config& c) {
  // make_param_space's layout puts num_iotasks first and table entry k at
  // position k + 1. A space in that layout is read by position; any other
  // space, or a parameter whose name differs, falls back to the by-name
  // lookup. Both read the same value, so the result is the same.
  const auto& table = parameter_table();
  const bool standard = space.dim() == table.size() + 1 && c.size() == space.dim() &&
                        space.param(0).name() == "num_iotasks";
  PhaseMultipliers m;
  m.num_iotasks = static_cast<int>(standard ? std::get<std::int64_t>(c.values[0])
                                            : space.get_int(c, "num_iotasks"));
  for (std::size_t k = 0; k < table.size(); ++k) {
    const auto& spec = table[k];
    const std::string& choice = standard && space.param(k + 1).name() == spec.name
                                    ? std::get<std::string>(c.values[k + 1])
                                    : space.get_enum(c, spec.name);
    const auto it = std::find(spec.choices.begin(), spec.choices.end(), choice);
    if (it == spec.choices.end()) {
      throw std::invalid_argument("evaluate_multipliers: bad choice for " + spec.name);
    }
    const double mult =
        spec.multipliers[static_cast<std::size_t>(it - spec.choices.begin())];
    switch (spec.phase) {
      case PopPhase::Momentum: m.momentum *= mult; break;
      case PopPhase::Tracer: m.tracer *= mult; break;
      case PopPhase::State: m.state *= mult; break;
      case PopPhase::Forcing: m.forcing *= mult; break;
      case PopPhase::Io: break;
    }
  }
  return m;
}

PhaseMultipliers best_multipliers() {
  PhaseMultipliers m;
  m.num_iotasks = 0;  // not meaningful here
  for (const auto& spec : parameter_table()) {
    const double best = *std::min_element(spec.multipliers.begin(),
                                          spec.multipliers.end());
    switch (spec.phase) {
      case PopPhase::Momentum: m.momentum *= best; break;
      case PopPhase::Tracer: m.tracer *= best; break;
      case PopPhase::State: m.state *= best; break;
      case PopPhase::Forcing: m.forcing *= best; break;
      case PopPhase::Io: break;
    }
  }
  return m;
}

}  // namespace minipop
