#include "nsu3d/solver.hpp"

#include <cmath>

#include "obs/obs.hpp"
#include "support/assert.hpp"

namespace columbia::nsu3d {

using euler::Prim;
using geom::Vec3;
using kernels::mean_prim;

Nsu3dSolver::Nsu3dSolver(const mesh::UnstructuredMesh& m,
                         const euler::FlowConditions& conditions,
                         const Nsu3dOptions& options)
    : MultigridDriver("nsu3d"),
      opt_(options),
      cond_(conditions),
      freestream_(conditions.freestream()) {
  COLUMBIA_REQUIRE(opt_.mg_levels >= 1);
  mu_lam_ = cond_.mach / cond_.reynolds;  // nondimensional reference
  nut_inf_ = opt_.viscous ? 3.0 * mu_lam_ / freestream_.rho : 0.0;
  phys_.freestream = freestream_;
  phys_.flux = opt_.flux;
  phys_.mu_lam = mu_lam_;
  phys_.nut_inf = nut_inf_;
  phys_.viscous = opt_.viscous;

  LevelOptions lo;
  lo.num_levels = opt_.mg_levels;
  lo.line_threshold = opt_.line_threshold;
  levels_ = build_levels(m, lo);

  scratch_.resize(levels_.size());
  State uinf{};
  const euler::Cons c5 = euler::to_conservative(freestream_);
  for (int k = 0; k < 5; ++k) uinf[std::size_t(k)] = c5[std::size_t(k)];
  uinf[5] = freestream_.rho * nut_inf_;
  init_levels(int(levels_.size()), uinf);
}

void Nsu3dSolver::project(int l, std::vector<State>& u) const {
  if (l != 0) return;  // strong conditions live on the true mesh
  const Level& lvl = levels_[0];
  for (index_t v = 0; v < lvl.num_nodes; ++v) {
    if (opt_.viscous && lvl.is_wall_node(v)) {
      // No-slip, nu~ = 0 at solid walls.
      u[std::size_t(v)][1] = 0;
      u[std::size_t(v)][2] = 0;
      u[std::size_t(v)][3] = 0;
      u[std::size_t(v)][5] = 0;
      continue;
    }
    const Vec3& sn = lvl.boundary_normal[std::size_t(v)]
                                        [std::size_t(mesh::BoundaryTag::Symmetry)];
    const real_t s2 = dot(sn, sn);
    if (s2 > 0) {
      // Symmetry plane: remove the normal momentum component.
      const Vec3 nh = sn / std::sqrt(s2);
      Vec3 mom{u[std::size_t(v)][1], u[std::size_t(v)][2], u[std::size_t(v)][3]};
      mom -= dot(mom, nh) * nh;
      u[std::size_t(v)][1] = mom.x;
      u[std::size_t(v)][2] = mom.y;
      u[std::size_t(v)][3] = mom.z;
    }
  }
}

void Nsu3dSolver::compute_residual(int l, const std::vector<State>& u,
                                   std::vector<State>& res,
                                   bool second_order) {
  OBS_SPAN("nsu3d.residual", "level", l);
  kernels::residual(levels_[std::size_t(l)], phys_, l, u, second_order,
                    scratch_[std::size_t(l)], res);
  fresh_[std::size_t(l)] = false;  // the level's kernel scratch was overwritten
}

void Nsu3dSolver::smooth(int l, int steps) {
  OBS_SPAN("nsu3d.smooth", "level", l);
  const Level& lvl = levels_[std::size_t(l)];
  kernels::Scratch& k = scratch_[std::size_t(l)];
  std::vector<State>& u = state_[std::size_t(l)];
  const std::vector<State>& f = forcing_[std::size_t(l)];
  const bool lines = opt_.smoother == SmootherKind::LineImplicit;

  for (int step = 0; step < steps; ++step) {
    level_residual(l);
    const std::vector<State>& r = residual_[std::size_t(l)];
    // The primitive/SoA caches in k hold the same u as r (level_residual
    // refreshed them, or they are still fresh).
    kernels::wave_speeds(lvl, phys_, k);
    kernels::assemble_diag(lvl, phys_, opt_.cfl, u, k);
    if (!lines)
      kernels::point_sweep(lvl, opt_.relax, f, r, k, u);
    else
      kernels::line_sweep(lvl, phys_, opt_.relax, f, r, k, u);
    fresh_[std::size_t(l)] = false;
    project(l, u);
  }
}

void Nsu3dSolver::apply_backoff(const resil::GuardOptions& g) {
  opt_.cfl *= g.cfl_backoff;
  opt_.relax *= g.relax_backoff;
}

Forces Nsu3dSolver::integrate_forces() const {
  const Level& lvl = levels_[0];
  Forces out;
  const real_t pinf = freestream_.p;
  for (index_t i = 0; i < lvl.num_nodes; ++i) {
    const Vec3& wn =
        lvl.boundary_normal[std::size_t(i)][std::size_t(mesh::BoundaryTag::Wall)];
    if (dot(wn, wn) <= 0) continue;
    const Prim w = mean_prim(state_[0][std::size_t(i)]);
    out.force += (w.p - pinf) * wn;
  }
  const real_t q = 0.5 * freestream_.rho * dot(freestream_.vel, freestream_.vel);
  if (q > 0) {
    const Vec3 dd = normalized(freestream_.vel);
    out.cd = dot(out.force, dd) / q;
    out.cl = (out.force.z - dot(out.force, dd) * dd.z) / q;
  }
  return out;
}

}  // namespace columbia::nsu3d
