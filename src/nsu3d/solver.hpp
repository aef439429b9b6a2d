// NSU3D-style solver: node-centered, edge-based finite-volume RANS with
// line-implicit agglomeration multigrid.
//
// Mirrors the paper's Sec. III: six unknowns per grid point (density,
// momentum, energy, Spalart-Allmaras working variable) solved in coupled
// form; second-order upwind convection on the fine grid; edge-based viscous
// operator; local block-implicit (6x6) solves at each point, upgraded to
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
  /// Color-major edge reorder for threaded scatter loops (see Level).
  /// Disable only for serial edge-order equivalence tests.
  bool color_edges = true;
};

struct Forces {
  geom::Vec3 force;
  real_t cl = 0, cd = 0;
};

class Nsu3dSolver {
 public:
  Nsu3dSolver(const mesh::UnstructuredMesh& m,
              const euler::FlowConditions& conditions,
              const Nsu3dOptions& options = {});

  /// One multigrid cycle; returns the fine-grid density-residual norm.
  real_t run_cycle();

  std::vector<real_t> solve(int max_cycles, real_t orders = 5);

  /// Guarded solve: per-cycle NaN/blow-up detection, rollback to the last
  /// good checkpoint with CFL/relaxation backoff, optional durable
  /// checkpoint + resume (see resil::guarded_solve). With faults off and
  /// no recovery triggered, the history matches solve() bit for bit.
  resil::GuardedSolveResult solve_guarded(
      int max_cycles, real_t orders = 5,
      const resil::GuardedSolveOptions& options = {});

  /// Snapshot of the complete solver state: the fine-grid solution
  /// (including the SA working variable) plus cycle/history. Coarse-level
  /// state is rebuilt by the next cycle's FAS restriction, so restoring
  /// this checkpoint reproduces the uninterrupted residual history
  /// bit-identically.
  resil::Checkpoint make_checkpoint(std::uint64_t cycle,
                                    std::span<const real_t> history) const;

  /// Restores a checkpoint from make_checkpoint; throws std::runtime_error
  /// when the solver tag or state size does not match this configuration.
  void restore_checkpoint(const resil::Checkpoint& c);

  real_t residual_norm();

  int num_levels() const { return int(levels_.size()); }
  const Level& level(int l) const { return levels_[std::size_t(l)]; }
  std::span<const State> solution() const { return state_[0]; }
  /// Current state of any level (coarse levels hold the latest FAS
  /// restriction) — read-only, for per-level halo exchanges driven off
  /// the level hooks.
  std::span<const State> solution(int l) const {
    return state_[std::size_t(l)];
  }

  /// Read-only level-visit hooks (core::MultigridDriver::set_level_hooks):
  /// `begin` fires on entry to a level visit, `end` right after its
  /// pre-smoother — the post()/finish() anchor points for split halo
  /// exchanges. Hooks must not mutate solver state; histories stay
  /// bit-identical with hooks installed or absent.
  void set_level_hooks(std::function<void(int)> begin,
                       std::function<void(int)> end) {
    driver_.set_level_hooks(std::move(begin), std::move(end));
  }

  Forces integrate_forces() const;

  /// Residual of `u` on level `l` (public so benchmarks and equivalence
  /// tests can drive the hot kernel directly). Runs on the shared-memory
  /// pool; results are bit-identical for every thread count.
  void compute_residual(int l, const std::vector<State>& u,
                        std::vector<State>& res, bool second_order);

 private:
  friend class core::MultigridDriver<Nsu3dSolver>;

  Nsu3dOptions opt_;
  euler::FlowConditions cond_;
  euler::Prim freestream_;
  real_t nut_inf_ = 0;
  real_t mu_lam_ = 0;
  std::vector<Level> levels_;

  std::vector<std::vector<State>> state_;
  std::vector<std::vector<State>> forcing_;
  std::vector<std::vector<State>> residual_;
  std::vector<std::vector<State>> restricted_snapshot_;

  /// Persistent per-level scratch: steady-state cycles perform no heap
  /// allocation (vectors keep their capacity across sweeps). The hot
  /// per-node fields live in the SoA kernel scratch (nsu3d/kernels.hpp).
  struct Workspace {
    kernels::Scratch k;
    // Restriction scratch (coarse-level sized).
    std::vector<real_t> vol;
    std::vector<State> transferred;
  };
  std::vector<Workspace> work_;

  /// Per level: residual_[l] and work_[l].k hold R(state_[l]) under the
  /// operator smooth(l) uses. The residual that ends a cycle (or a
  /// restriction) is then the one the next smoothing step starts from,
  /// so it is computed once. Cleared by every write to state_[l] and by
  /// the public compute_residual, which overwrites the scratch.
  std::vector<bool> fresh_;

  /// Physical constants handed to the kernel layer (built once in the
  /// constructor from the options and flow conditions).
  kernels::Physics phys_;

  /// Cycle orchestration (level walk, convergence loop, guard wiring,
  /// telemetry, fault hooks) lives in the shared driver; this class keeps
  /// only the physics it feeds the driver.
  core::MultigridDriver<Nsu3dSolver> driver_{"nsu3d"};

  void smooth(int l, int steps);
  /// R(state_[l]) into residual_[l] with smooth(l)'s operator, unless
  /// still fresh.
  void level_residual(int l);
  void apply_strong_bcs(int l, std::vector<State>& u) const;
  void restrict_to(int l);
  void prolong_correction(int l);

  // --- Adapter surface consumed by core::MultigridDriver ---
  const core::SolveParams& solve_params() const { return opt_; }
  std::size_t state_count() const { return state_[0].size(); }
  void poison_state(std::size_t i);
  void apply_backoff(const resil::GuardOptions& g);
  void telemetry_forces(double& cl, double& cd) const;
};

}  // namespace columbia::nsu3d
