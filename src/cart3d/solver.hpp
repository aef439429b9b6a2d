// Cart3D-style flow solver: cell-centered finite-volume Euler on the
// multilevel Cartesian cut-cell mesh.
//
// Per the paper (Sec. V): "a second-order cell-centered, finite-volume
// upwind spatial discretization combined with a multigrid accelerated
// Runge-Kutta scheme for advance to steady-state". The multigrid hierarchy
// comes from the single-pass SFC coarsener; restriction/prolongation are
// volume-weighted averaging and piecewise-constant injection through the
// fine-to-coarse cell maps (FAS formulation, V- or W-cycles as in Fig. 4).
#pragma once

#include <array>
#include <span>
#include <vector>

#include "cart3d/kernels.hpp"
#include "cartesian/coarsen.hpp"
#include "core/multigrid.hpp"
#include "core/params.hpp"
#include "euler/flux.hpp"
#include "euler/state.hpp"
#include "resil/checkpoint.hpp"
#include "resil/guard.hpp"
#include "support/types.hpp"

namespace columbia::cart3d {

using CycleType = core::CycleType;  // shared cycle vocabulary (core/)

/// Cycle-control fields (mg_levels, cycle, cfl, smoothing steps,
/// correction damping, second_order) live in core::SolveParams; only the
/// Cartesian-specific knobs are added here.
struct SolverOptions : core::SolveParams {
  SolverOptions() {
    mg_levels = 1;  // 1 = single grid
    cfl = 1.2;
    smooth_steps = 2;  // RK smoothing steps per level visit
  }
  euler::FluxScheme flux = euler::FluxScheme::Roe;
  cartesian::SfcKind sfc = cartesian::SfcKind::PeanoHilbert;
};

/// Aerodynamic force/moment integrals over the embedded surface.
struct Forces {
  geom::Vec3 force;   // pressure force vector (nondimensional)
  real_t cl = 0;      // lift coefficient direction (z in body axes)
  real_t cd = 0;      // drag (freestream direction)
};

/// The FAS multigrid layer (level storage, transfers, residual norm,
/// checkpoints, cycle walk, guarded solves) is core::MultigridDriver; this
/// class supplies the Euler physics through the driver's adapter surface.
class Cart3DSolver : public core::MultigridDriver<Cart3DSolver, 5> {
 public:
  Cart3DSolver(const cartesian::CartMesh& mesh,
               const euler::FlowConditions& conditions,
               const SolverOptions& options = {});

  const cartesian::CartMesh& mesh(int level = 0) const {
    return hierarchy_.levels[std::size_t(level)];
  }

  Forces integrate_forces() const;

  /// Residual of `u` on `level` (public so benchmarks and equivalence
  /// tests can drive the hot kernel directly). Cell loops run on the
  /// shared-memory pool in SFC-contiguous chunks; results are
  /// bit-identical for every thread count.
  void compute_residual(int level, const std::vector<euler::Cons>& u,
                        std::vector<euler::Cons>& res, bool second_order);

  // --- Adapter surface consumed by core::MultigridDriver ---
  static constexpr std::size_t kGrain = kernels::kCellGrain;
  static bool state_valid(const euler::Cons& u) { return euler::is_valid(u); }
  const core::SolveParams& solve_params() const { return opt_; }
  std::size_t level_size(int level) const {
    return hierarchy_.levels[std::size_t(level)].cells.size();
  }
  std::span<const index_t> to_coarse(int level) const {
    return hierarchy_.maps[std::size_t(level)];
  }
  /// Fluid-scaled cell volumes (the level's geometry, built on first use).
  std::span<const real_t> control_volume(int level) {
    return level_geom(level).volume;
  }
  /// Three-stage Runge-Kutta smoothing steps on `level`.
  void smooth(int level, int steps);
  /// Cart3D imposes no strong conditions: nothing to project.
  void project(int, std::vector<euler::Cons>&) const {}
  /// The RK smoother has no relaxation knob; backoff acts on CFL alone.
  void apply_backoff(const resil::GuardOptions& g) { opt_.cfl *= g.cfl_backoff; }

 private:
  SolverOptions opt_;
  euler::FlowConditions cond_;
  euler::Prim freestream_;
  cartesian::CartHierarchy hierarchy_;

  /// Persistent per-level scratch so steady-state cycles perform no heap
  /// allocation (vectors keep capacity across sweeps).
  struct Workspace {
    kernels::LevelGeom geom;  // per-level geometry precompute (lazy-built)
    kernels::Scratch k;       // SoA residual scratch
    std::vector<euler::Prim> w;  // primitive cache (smoother wave speeds)
    std::vector<real_t> wave;    // sum |lambda| A
    std::vector<euler::Cons> u0;  // RK stage base state
  };
  std::vector<Workspace> work_;

  /// The level's precomputed geometry, built on first use; its
  /// second-order streams on the first second-order use.
  const kernels::LevelGeom& level_geom(int level, bool second_order = false);
};

}  // namespace columbia::cart3d
