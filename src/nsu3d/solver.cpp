#include "nsu3d/solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "euler/jacobian.hpp"
#include "linalg/block.hpp"
#include "linalg/block_tridiag.hpp"
#include "obs/obs.hpp"
#include "resil/faults.hpp"
#include "smp/pool.hpp"
#include "support/assert.hpp"
#include "support/timer.hpp"

namespace columbia::nsu3d {

using euler::Prim;
using geom::Vec3;
using linalg::BlockLU;
using linalg::BlockMat;
using linalg::BlockVec;

using kernels::mean_prim;
using kernels::state_valid;

namespace {

// Chunk grain for the pooled node loops here (prolongation); matches the
// kernel layer's constant so chunk boundaries never depend on thread count.
constexpr std::size_t kNodeGrain = 256;

/// Elementwise (no cross-index writes) loop over [0, n).
template <class Fn>
void for_nodes(std::size_t n, Fn&& body) {
  smp::ThreadPool::global().parallel_for(
      0, n, kNodeGrain, [&](std::size_t b, std::size_t e, int) {
        for (std::size_t i = b; i < e; ++i) body(i);
      });
}

}  // namespace

Nsu3dSolver::Nsu3dSolver(const mesh::UnstructuredMesh& m,
                         const euler::FlowConditions& conditions,
                         const Nsu3dOptions& options)
    : opt_(options), cond_(conditions), freestream_(conditions.freestream()) {
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
  lo.color_edges = opt_.color_edges;
  levels_ = build_levels(m, lo);

  const std::size_t nl = levels_.size();
  state_.resize(nl);
  forcing_.resize(nl);
  residual_.resize(nl);
  restricted_snapshot_.resize(nl);
  work_.resize(nl);
  fresh_.assign(nl, false);
  State uinf{};
  const euler::Cons c5 = euler::to_conservative(freestream_);
  for (int k = 0; k < 5; ++k) uinf[std::size_t(k)] = c5[std::size_t(k)];
  uinf[5] = freestream_.rho * nut_inf_;
  for (std::size_t l = 0; l < nl; ++l) {
    state_[l].assign(std::size_t(levels_[l].num_nodes), uinf);
    forcing_[l].assign(std::size_t(levels_[l].num_nodes), State{});
    residual_[l].assign(std::size_t(levels_[l].num_nodes), State{});
  }
  apply_strong_bcs(0, state_[0]);
}

void Nsu3dSolver::apply_strong_bcs(int l, std::vector<State>& u) const {
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
                    work_[std::size_t(l)].k, res);
  fresh_[std::size_t(l)] = false;  // the level's kernel scratch was overwritten
}

void Nsu3dSolver::level_residual(int l) {
  if (fresh_[std::size_t(l)]) return;
  compute_residual(l, state_[std::size_t(l)], residual_[std::size_t(l)],
                   opt_.second_order && l == 0);
  fresh_[std::size_t(l)] = true;
}

void Nsu3dSolver::smooth(int l, int steps) {
  OBS_SPAN("nsu3d.smooth", "level", l);
  const Level& lvl = levels_[std::size_t(l)];
  Workspace& ws = work_[std::size_t(l)];
  std::vector<State>& u = state_[std::size_t(l)];
  const std::vector<State>& f = forcing_[std::size_t(l)];
  const bool lines = opt_.smoother == SmootherKind::LineImplicit;

  for (int step = 0; step < steps; ++step) {
    level_residual(l);
    const std::vector<State>& r = residual_[std::size_t(l)];
    // The primitive/SoA caches in ws.k hold the same u as r (level_residual
    // refreshed them, or they are still fresh).
    kernels::wave_speeds(lvl, phys_, ws.k);
    kernels::assemble_diag(lvl, phys_, opt_.cfl, u, ws.k);
    if (!lines)
      kernels::point_sweep(lvl, opt_.relax, f, r, ws.k, u);
    else
      kernels::line_sweep(lvl, phys_, opt_.relax, f, r, ws.k, u);
    fresh_[std::size_t(l)] = false;
    apply_strong_bcs(l, u);
  }
}


void Nsu3dSolver::restrict_to(int l) {
  const Level& fine = levels_[std::size_t(l)];
  const Level& coarse = levels_[std::size_t(l) + 1];
  const auto& map = fine.to_coarse;
  Workspace& wsc = work_[std::size_t(l) + 1];
  std::vector<State>& uc = state_[std::size_t(l) + 1];
  std::vector<State>& fc = forcing_[std::size_t(l) + 1];
  const std::size_t nc = std::size_t(coarse.num_nodes);

  fresh_[std::size_t(l) + 1] = false;
  uc.assign(nc, State{});
  wsc.vol.assign(nc, 0.0);
  std::vector<real_t>& vol = wsc.vol;
  for (index_t i = 0; i < fine.num_nodes; ++i) {
    const std::size_t j = std::size_t(map[std::size_t(i)]);
    const real_t v = fine.node_volume[std::size_t(i)];
    vol[j] += v;
    for (int c = 0; c < 6; ++c)
      uc[j][std::size_t(c)] += v * state_[std::size_t(l)][std::size_t(i)][std::size_t(c)];
  }
  for (std::size_t j = 0; j < nc; ++j)
    if (vol[j] > 0)
      for (int c = 0; c < 6; ++c) uc[j][std::size_t(c)] /= vol[j];
  restricted_snapshot_[std::size_t(l) + 1] = uc;

  level_residual(l);
  wsc.transferred.assign(nc, State{});
  std::vector<State>& transferred = wsc.transferred;
  for (index_t i = 0; i < fine.num_nodes; ++i) {
    const std::size_t j = std::size_t(map[std::size_t(i)]);
    for (int c = 0; c < 6; ++c)
      transferred[j][std::size_t(c)] +=
          residual_[std::size_t(l)][std::size_t(i)][std::size_t(c)] -
          forcing_[std::size_t(l)][std::size_t(i)][std::size_t(c)];
  }
  // R(u_c) is the coarse smoother's own operator (first order below the
  // fine level), so its first smoothing step reuses it.
  level_residual(l + 1);
  fc.assign(nc, State{});
  for (std::size_t j = 0; j < nc; ++j)
    for (int c = 0; c < 6; ++c)
      fc[j][std::size_t(c)] =
          residual_[std::size_t(l) + 1][j][std::size_t(c)] -
          transferred[j][std::size_t(c)];
}

void Nsu3dSolver::prolong_correction(int l) {
  const Level& fine = levels_[std::size_t(l)];
  const auto& map = fine.to_coarse;
  const std::vector<State>& uc = state_[std::size_t(l) + 1];
  const std::vector<State>& snap = restricted_snapshot_[std::size_t(l) + 1];
  std::vector<State>& uf = state_[std::size_t(l)];
  for_nodes(std::size_t(fine.num_nodes), [&](std::size_t i) {
    const std::size_t j = std::size_t(map[i]);
    State unew = uf[i];
    for (int c = 0; c < 6; ++c)
      unew[std::size_t(c)] += opt_.correction_damping *
                              (uc[j][std::size_t(c)] - snap[j][std::size_t(c)]);
    if (state_valid(unew)) uf[i] = unew;
  });
  fresh_[std::size_t(l)] = false;
  apply_strong_bcs(l, uf);
}

real_t Nsu3dSolver::residual_norm() {
  level_residual(0);
  const Level& lvl = levels_[0];
  const std::size_t n = std::size_t(lvl.num_nodes);
  // Deterministic tree reduction: fixed chunking, partials combined in
  // chunk order, so the norm is bit-identical for every thread count.
  const real_t sum = smp::ThreadPool::global().reduce_sum(
      0, n, kNodeGrain, [&](std::size_t b, std::size_t e) {
        real_t s = 0;
        for (std::size_t i = b; i < e; ++i) {
          const real_t v = lvl.node_volume[i];
          if (v <= 0) continue;
          const real_t r = residual_[0][i][0] / v;
          s += r * r;
        }
        return s;
      });
  std::size_t cnt = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (lvl.node_volume[i] > 0) ++cnt;
  return std::sqrt(sum / real_t(std::max<std::size_t>(1, cnt)));
}

real_t Nsu3dSolver::run_cycle() { return driver_.run_cycle(*this); }

/// Fault hook (COLUMBIA_FAULTS state_nan): poison one energy entry after
/// the cycle's updates so the guard sees a non-finite residual.
void Nsu3dSolver::poison_state(std::size_t i) {
  fresh_[0] = false;
  state_[0][i][4] = std::numeric_limits<real_t>::quiet_NaN();
}

resil::Checkpoint Nsu3dSolver::make_checkpoint(
    std::uint64_t cycle, std::span<const real_t> history) const {
  resil::Checkpoint c;
  c.solver = "nsu3d";
  c.cycle = cycle;
  c.state_stride = 6;
  c.history.assign(history.begin(), history.end());
  c.state.reserve(state_[0].size() * 6);
  for (const State& s : state_[0])
    c.state.insert(c.state.end(), s.begin(), s.end());
  return c;
}

void Nsu3dSolver::restore_checkpoint(const resil::Checkpoint& c) {
  if (c.solver != "nsu3d")
    throw std::runtime_error("checkpoint solver mismatch: got '" + c.solver +
                             "', expected 'nsu3d'");
  if (c.state_stride != 6 || c.state.size() != state_[0].size() * 6)
    throw std::runtime_error("checkpoint state size mismatch for nsu3d grid");
  auto& u = state_[0];
  for (std::size_t i = 0; i < u.size(); ++i)
    for (std::size_t k = 0; k < 6; ++k) u[i][k] = c.state[i * 6 + k];
  fresh_.assign(fresh_.size(), false);
}

resil::GuardedSolveResult Nsu3dSolver::solve_guarded(
    int max_cycles, real_t orders, const resil::GuardedSolveOptions& options) {
  return driver_.solve_guarded(*this, max_cycles, orders, options);
}

/// The line-implicit smoother has both a CFL and a relaxation knob; guard
/// backoff retreats on both.
void Nsu3dSolver::apply_backoff(const resil::GuardOptions& g) {
  opt_.cfl *= g.cfl_backoff;
  opt_.relax *= g.relax_backoff;
}

void Nsu3dSolver::telemetry_forces(double& cl, double& cd) const {
  const Forces f = integrate_forces();
  cl = double(f.cl);
  cd = double(f.cd);
}

std::vector<real_t> Nsu3dSolver::solve(int max_cycles, real_t orders) {
  return driver_.solve(*this, max_cycles, orders);
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
