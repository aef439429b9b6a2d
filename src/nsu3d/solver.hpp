// NSU3D-style solver: node-centered, edge-based finite-volume RANS with
// line-implicit agglomeration multigrid.
//
// Mirrors the paper's Sec. III: six unknowns per grid point (density,
// momentum, energy, Spalart-Allmaras working variable) solved in coupled
// form; second-order upwind convection on the fine grid; edge-based viscous
// operator; local block-implicit (5x5 + SA) solves at each point, upgraded to
// block-tridiagonal line solves in stretched boundary-layer regions; FAS
// agglomeration multigrid with V- or W-cycles (W preferred, Fig. 4).
#pragma once

#include <array>
#include <span>
#include <vector>

#include "core/multigrid.hpp"
#include "core/params.hpp"
#include "euler/flux.hpp"
#include "euler/state.hpp"
#include "linalg/block.hpp"
#include "nsu3d/kernels.hpp"
#include "nsu3d/level.hpp"
#include "resil/checkpoint.hpp"
#include "resil/guard.hpp"
#include "support/types.hpp"

namespace columbia::nsu3d {

/// Conservative state per node: [rho, rho u, rho v, rho w, rho E, rho nu~].
using State = std::array<real_t, 6>;

using CycleType = core::CycleType;  // shared cycle vocabulary (core/)
enum class SmootherKind { PointImplicit, LineImplicit };

/// Cycle-control fields (mg_levels, cycle, cfl, smoothing steps,
/// correction damping, second_order) live in core::SolveParams; only the
/// RANS-specific knobs are added here.
struct Nsu3dOptions : core::SolveParams {
  Nsu3dOptions() {
    mg_levels = 4;
    cfl = 20.0;  // implicit smoothing tolerates large CFL
  }
  SmootherKind smoother = SmootherKind::LineImplicit;
  euler::FluxScheme flux = euler::FluxScheme::Roe;
  real_t relax = 0.7;  // update under-relaxation
  bool viscous = true;  // include viscous terms + SA (RANS mode)
  real_t line_threshold = 4.0;
};

struct Forces {
  geom::Vec3 force;
  real_t cl = 0, cd = 0;
};

/// The FAS multigrid layer (level storage, transfers, residual norm,
/// checkpoints, cycle walk, guarded solves) is core::MultigridDriver; this
/// class supplies the RANS physics through the driver's adapter surface.
class Nsu3dSolver : public core::MultigridDriver<Nsu3dSolver, 6> {
 public:
  Nsu3dSolver(const mesh::UnstructuredMesh& m,
              const euler::FlowConditions& conditions,
              const Nsu3dOptions& options = {});

  const Level& level(int l) const { return levels_[std::size_t(l)]; }

  Forces integrate_forces() const;

  /// Residual of `u` on level `l` (public so benchmarks and equivalence
  /// tests can drive the hot kernel directly). Runs on the shared-memory
  /// pool; results are bit-identical for every thread count.
  void compute_residual(int l, const std::vector<State>& u,
                        std::vector<State>& res, bool second_order);

  // --- Adapter surface consumed by core::MultigridDriver ---
  static constexpr std::size_t kGrain = kernels::kNodeGrain;
  static bool state_valid(const State& u) { return kernels::state_valid(u); }
  const core::SolveParams& solve_params() const { return opt_; }
  std::size_t level_size(int l) const {
    return std::size_t(levels_[std::size_t(l)].num_nodes);
  }
  std::span<const index_t> to_coarse(int l) const {
    return levels_[std::size_t(l)].to_coarse;
  }
  std::span<const real_t> control_volume(int l) const {
    return levels_[std::size_t(l)].node_volume;
  }
  /// Point- or line-implicit smoothing steps on level l.
  void smooth(int l, int steps);
  /// Strong boundary conditions on the fine level (no-slip walls with
  /// nu~ = 0, symmetry planes without normal momentum); none below it.
  void project(int l, std::vector<State>& u) const;
  /// The line-implicit smoother has both a CFL and a relaxation knob;
  /// guard backoff retreats on both.
  void apply_backoff(const resil::GuardOptions& g);

 private:
  Nsu3dOptions opt_;
  euler::FlowConditions cond_;
  euler::Prim freestream_;
  real_t nut_inf_ = 0;
  real_t mu_lam_ = 0;
  std::vector<Level> levels_;

  /// Persistent per-level kernel scratch: steady-state cycles perform no
  /// heap allocation (vectors keep their capacity across sweeps). The hot
  /// per-node fields live in the SoA layout (nsu3d/kernels.hpp).
  std::vector<kernels::Scratch> scratch_;

  /// Physical constants handed to the kernel layer (built once in the
  /// constructor from the options and flow conditions).
  kernels::Physics phys_;
};

}  // namespace columbia::nsu3d
