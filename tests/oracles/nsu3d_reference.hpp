// Scalar oracles of the NSU3D kernel layer (nsu3d/kernels.hpp), kept out
// of the production library: the tests pin the SoA kernels to them bit for
// bit.
//
//  * residual_reference: the pre-SoA edge/node residual loops (AoS state,
//    per-component switch, per-edge geometry divisions), serial.
//  * assemble_diag_reference / point_sweep_reference /
//    line_sweep_reference: the coupled 6x6 implicit smoother the 5+1
//    kernels split, serial. They read the primitive, eddy-viscosity,
//    wave-speed and sound-speed caches of a kernels::Scratch that
//    prim_cache and wave_speeds filled for the same state.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "linalg/block.hpp"
#include "nsu3d/kernels.hpp"

namespace columbia::nsu3d::kernels {

/// Scratch for the scalar reference residual (AoS layout, matching the
/// pre-SoA workspace).
struct ReferenceScratch {
  std::vector<euler::Prim> w;
  std::vector<real_t> nut, mut;
  std::vector<std::array<geom::Vec3, 6>> grad;
  std::vector<std::array<real_t, 6>> phi, qmin, qmax;
};

/// Serial scalar residual: a verbatim retention of the pre-SoA edge/node
/// loops, reading the level's per-edge streams where it once read their
/// AoS copies (the same values).
void residual_reference(const Level& lvl, const Physics& phys, int level,
                        std::span<const State> u, bool second_order,
                        ReferenceScratch& s, std::vector<State>& res);

/// The coupled 6x6 diagonal blocks, one per node.
void assemble_diag_reference(const Level& lvl, const Physics& phys,
                             real_t cfl, std::span<const State> u,
                             const Scratch& s,
                             std::vector<linalg::BlockMat<6>>& diag);

/// Point-implicit sweep on 6x6 blocks; a singular block keeps the node's
/// state and is counted on "resil.singular_pivot".
void point_sweep_reference(const Level& lvl, real_t relax,
                           std::span<const State> f, std::span<const State> r,
                           const std::vector<linalg::BlockMat<6>>& diag,
                           std::vector<State>& u);

/// Line-implicit sweep on 6x6 blocks; a singular pivot skips the line and
/// is counted on "resil.singular_pivot".
void line_sweep_reference(const Level& lvl, const Physics& phys, real_t relax,
                          std::span<const State> f, std::span<const State> r,
                          const Scratch& s,
                          const std::vector<linalg::BlockMat<6>>& diag,
                          std::vector<State>& u);

}  // namespace columbia::nsu3d::kernels
