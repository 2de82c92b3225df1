#include "fleet/substrates.hpp"

#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "minigs2/minigs2.hpp"
#include "minipetsc/minipetsc.hpp"
#include "minipop/minipop.hpp"
#include "simcluster/simcluster.hpp"

namespace harmony::fleet {

namespace {

/// Simulated per-run cost: the worker would be blocked on the application's
/// short run for this long, so it sleeps (wall time, not CPU) — scaling
/// benches then measure dispatch overlap rather than host core count.
void spin_for(int spin_us) {
  if (spin_us <= 0) return;
  std::this_thread::sleep_for(std::chrono::microseconds(spin_us));
}

/// Integer-exact paraboloid with a unique minimum at (37, 61). Every
/// objective is a small integer divided by a power of two, so the value
/// round-trips the wire bit-exactly and fleet trajectories can be compared
/// against serial golden runs with EXPECT_EQ.
Substrate make_synthetic(int spin_us) {
  // The space is shared into the lambda (Substrate objects get moved around,
  // so capturing a reference to the member would dangle).
  auto sp = std::make_shared<ParamSpace>();
  sp->add(Parameter::Integer("x", 0, 100));
  sp->add(Parameter::Integer("y", 0, 100));
  Substrate s;
  s.name = "synthetic";
  s.space = *sp;
  s.run = [sp, spin_us](const Config& c, int) {
    const double dx = static_cast<double>(sp->get_int(c, "x") - 37);
    const double dy = static_cast<double>(sp->get_int(c, "y") - 61);
    ShortRunResult r;
    r.measured_s = (dx * dx + dy * dy + 1.0) / 1024.0;
    spin_for(spin_us);
    return r;
  };
  return s;
}

Substrate make_pop(int spin_us) {
  struct State {
    minipop::PopGrid grid = minipop::PopGrid::production();
    minipop::PopModel model{grid};
    simcluster::Machine machine = simcluster::presets::nersc_sp3(30, 16);
    minipop::PhaseMultipliers mult;
  };
  auto st = std::make_shared<State>();
  const auto pspace = minipop::make_param_space(32);
  st->mult = minipop::evaluate_multipliers(pspace, minipop::default_config(pspace));

  auto sp = std::make_shared<ParamSpace>();
  sp->add(Parameter::Integer("block_x", 30, 720, 6));
  sp->add(Parameter::Integer("block_y", 24, 600, 4));
  Substrate s;
  s.name = "pop";
  s.space = *sp;
  s.run = [st, sp, spin_us](const Config& c, int) {
    const minipop::BlockShape shape{
        static_cast<int>(sp->get_int(c, "block_x")),
        static_cast<int>(sp->get_int(c, "block_y"))};
    ShortRunResult r;
    r.measured_s = st->model.step_time(st->machine, 16, shape, st->mult).total_s;
    spin_for(spin_us);
    return r;
  };
  return s;
}

Substrate make_gs2(int spin_us) {
  auto model = std::make_shared<minigs2::Gs2Model>();
  auto sp = std::make_shared<ParamSpace>();
  sp->add(Parameter::Integer("negrid", 4, 16));
  sp->add(Parameter::Integer("ntheta", 10, 32, 2));
  sp->add(Parameter::Integer("nodes", 1, 64));
  Substrate s;
  s.name = "gs2";
  s.space = *sp;
  s.run = [model, sp, spin_us](const Config& c, int steps) {
    minigs2::Resolution res;
    res.negrid = static_cast<int>(sp->get_int(c, "negrid"));
    res.ntheta = static_cast<int>(sp->get_int(c, "ntheta"));
    const int nodes = static_cast<int>(sp->get_int(c, "nodes"));
    const auto machine = simcluster::presets::xeon_myrinet(nodes, 2);
    ShortRunResult r;
    r.measured_s =
        model->run_time(machine, 2 * nodes, res, minigs2::Layout("lxyes"),
                        minigs2::CollisionModel::None, steps);
    spin_for(spin_us);
    return r;
  };
  return s;
}

Substrate make_petsc(int spin_us) {
  // Fig. 2(a)-shaped dense-block solve, 4 ranks: tune the three row-partition
  // boundaries of a block-structured matrix.
  // One factor memo serves every run: an NM step moves one boundary, so
  // most of a partition's blocks keep their row range or their start row.
  struct State {
    minipetsc::CsrMatrix A = minipetsc::dense_block_matrix({40, 40, 40, 40}, 0.6);
    minipetsc::BlockFactorMemo factors{A};
    minipetsc::Vec b;
    simcluster::Machine machine = simcluster::presets::xeon_myrinet(4, 1);
    int n = A.rows();
  };
  auto st = std::make_shared<State>();
  st->b = minipetsc::Vec(static_cast<std::size_t>(st->n));
  for (std::size_t i = 0; i < st->b.size(); ++i) st->b[i] = std::sin(0.05 * i);

  Substrate s;
  s.name = "petsc";
  for (int i = 0; i < 3; ++i) {
    // Appended, not "b" + to_string: g++ 12 flags that with a false -Wrestrict.
    std::string name = "b";
    name += std::to_string(i);
    s.space.add(Parameter::Integer(name, 1, st->n - 1));
  }
  s.run = [st, spin_us](const Config& c, int) {
    std::vector<int> bounds;
    bounds.reserve(c.values.size());
    for (const auto& v : c.values) {
      bounds.push_back(static_cast<int>(std::get<std::int64_t>(v)));
    }
    ShortRunResult r;
    std::optional<minipetsc::RowPartition> part;
    try {
      part = minipetsc::RowPartition::from_boundaries(st->n, 4, std::move(bounds));
    } catch (const std::invalid_argument&) {
      r.ok = false;  // crossing/degenerate boundaries: infeasible candidate
    }
    if (part) {
      // Anything the set-up, the solve or analyze() throws is a fault, not
      // an infeasible candidate, so it propagates.
      minipetsc::Vec x;
      const minipetsc::PcBlockJacobi pc(st->factors, *part);
      const auto ksp = minipetsc::cg_solve(st->A, st->b, x, pc);
      if (!ksp.converged) {
        r.ok = false;
      } else {
        r.measured_s = minipetsc::simulate_sles(
                           st->machine, minipetsc::analyze(st->A, *part),
                           ksp.iterations)
                           .total_s;
      }
    }
    spin_for(spin_us);
    return r;
  };
  return s;
}

}  // namespace

const std::vector<std::string>& substrate_names() {
  static const std::vector<std::string> names{"synthetic", "pop", "gs2", "petsc"};
  return names;
}

std::optional<Substrate> make_substrate(const std::string& name, int spin_us) {
  if (name == "synthetic") return make_synthetic(spin_us);
  if (name == "pop") return make_pop(spin_us);
  if (name == "gs2") return make_gs2(spin_us);
  if (name == "petsc") return make_petsc(spin_us);
  return std::nullopt;
}

}  // namespace harmony::fleet
