#include "cart3d/solver.hpp"

#include <cmath>

#include "cart3d/kernels.hpp"
#include "obs/obs.hpp"
#include "support/assert.hpp"

namespace columbia::cart3d {

using cartesian::CartFace;
using cartesian::CartMesh;
using euler::Cons;
using euler::Prim;
using geom::Vec3;

using kernels::axis_normal;
using kernels::boundary_normal;

Cart3DSolver::Cart3DSolver(const CartMesh& mesh,
                           const euler::FlowConditions& conditions,
                           const SolverOptions& options)
    : MultigridDriver("cart3d"),
      opt_(options),
      cond_(conditions),
      freestream_(conditions.freestream()) {
  COLUMBIA_REQUIRE(opt_.mg_levels >= 1);
  hierarchy_ = cartesian::build_hierarchy(mesh, opt_.mg_levels, opt_.sfc);
  work_.resize(hierarchy_.levels.size());
  init_levels(int(hierarchy_.levels.size()),
              euler::to_conservative(freestream_));
  if (obs::enabled())
    obs::gauge("cart3d.cut_cells")
        .set(std::uint64_t(hierarchy_.levels[0].num_cut_cells()));
}

void Cart3DSolver::compute_residual(int level, const std::vector<Cons>& u,
                                    std::vector<Cons>& res,
                                    bool second_order) {
  OBS_SPAN("cart3d.residual", "level", level);
  kernels::residual(level_geom(level, second_order),
                    hierarchy_.levels[std::size_t(level)], freestream_,
                    opt_.flux, u, second_order, work_[std::size_t(level)].k,
                    res);
  fresh_[std::size_t(level)] = false;  // the level's scratch was overwritten
}

const kernels::LevelGeom& Cart3DSolver::level_geom(int level,
                                                   bool second_order) {
  kernels::LevelGeom& g = work_[std::size_t(level)].geom;
  if (!g.built || (second_order && !g.second_order_built))
    g.build(hierarchy_.levels[std::size_t(level)], second_order);
  return g;
}

void Cart3DSolver::smooth(int level, int steps) {
  OBS_SPAN("cart3d.smooth", "level", level);
  const CartMesh& m = hierarchy_.levels[std::size_t(level)];
  Workspace& ws = work_[std::size_t(level)];
  std::vector<Cons>& u = state_[std::size_t(level)];
  const std::vector<Cons>& f = forcing_[std::size_t(level)];
  const std::size_t n = m.cells.size();
  const real_t* const vol = level_geom(level).volume.data();

  // Local time step: dt_i = CFL * V_i / sum(|lambda| A).
  ws.wave.assign(n, 0.0);
  auto& wave = ws.wave;
  {
    ws.w.resize(n);
    auto& w = ws.w;
    for_entries(n, [&](std::size_t i) { w[i] = euler::to_primitive(u[i]); });
    for (const CartFace& fc : m.faces) {
      const Vec3 nrm = axis_normal(fc.axis);
      const real_t sl = euler::spectral_radius(w[std::size_t(fc.left)], nrm);
      const real_t sr = euler::spectral_radius(w[std::size_t(fc.right)], nrm);
      wave[std::size_t(fc.left)] += sl * fc.area;
      wave[std::size_t(fc.right)] += sr * fc.area;
    }
    for (const CartFace& fc : m.boundary_faces)
      wave[std::size_t(fc.left)] +=
          euler::spectral_radius(w[std::size_t(fc.left)], boundary_normal(fc)) *
          fc.area;
    for_entries(n, [&](std::size_t i) {
      const cartesian::CartCell& c = m.cells[i];
      if (c.cut)
        wave[i] += euler::spectral_radius(w[i], normalized(c.wall_area)) *
                   norm(c.wall_area);
    });
  }

  // Three-stage Runge-Kutta smoother (Jameson-style coefficients).
  static constexpr real_t kAlpha[3] = {0.1481, 0.4, 1.0};
  for (int step = 0; step < steps; ++step) {
    ws.u0.assign(u.begin(), u.end());
    const std::vector<Cons>& u0 = ws.u0;
    for (real_t alpha : kAlpha) {
      level_residual(level);
      const std::vector<Cons>& r = residual_[std::size_t(level)];
      for_entries(n, [&](std::size_t i) {
        const real_t v = vol[i];
        if (wave[i] <= 0 || v <= 0) return;
        const real_t dt = opt_.cfl * v / wave[i];
        Cons unew = u0[i];
        for (int c = 0; c < 5; ++c)
          unew[std::size_t(c)] -= alpha * dt / v *
                                  (r[i][std::size_t(c)] - f[i][std::size_t(c)]);
        if (euler::is_valid(unew)) u[i] = unew;
        // else: keep the previous stage value (positivity guard).
      });
      fresh_[std::size_t(level)] = false;
    }
  }
}

Forces Cart3DSolver::integrate_forces() const {
  const CartMesh& m = hierarchy_.levels[0];
  Forces out;
  const real_t pinf = freestream_.p;
  for (std::size_t i = 0; i < m.cells.size(); ++i) {
    const cartesian::CartCell& c = m.cells[i];
    if (!c.cut) continue;
    const Prim w = euler::to_primitive(state_[0][i]);
    out.force += (w.p - pinf) * c.wall_area;
  }
  // Coefficients normalized by freestream dynamic pressure (unit reference
  // area; the examples report raw coefficients for trend comparisons).
  const real_t q = 0.5 * freestream_.rho * dot(freestream_.vel, freestream_.vel);
  if (q > 0) {
    const Vec3 drag_dir = normalized(freestream_.vel);
    out.cd = dot(out.force, drag_dir) / q;
    out.cl = (out.force.z - dot(out.force, drag_dir) * drag_dir.z) / q;
  }
  return out;
}

}  // namespace columbia::cart3d
