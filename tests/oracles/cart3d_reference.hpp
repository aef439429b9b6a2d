// Scalar oracle of the Cart3D kernel layer (cart3d/kernels.hpp), kept
// out of the production library: the tests pin the SoA residual to it bit
// for bit, and micro_kernels times it as the seed-replica baseline.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "cart3d/kernels.hpp"

namespace columbia::cart3d::kernels {

/// Scratch for the scalar reference (the pre-SoA workspace layout).
struct ReferenceScratch {
  std::vector<Prim> w;
  std::vector<std::array<geom::Vec3, 5>> grad;
  std::vector<std::array<real_t, 5>> phi, qmin, qmax;
  std::vector<std::array<real_t, 6>> gram;
  std::vector<std::array<geom::Vec3, 5>> rhs;
};

/// Serial scalar residual: a verbatim retention of the pre-SoA loops
/// (geometry recomputed per call, AoS state).
void residual_reference(const cartesian::CartMesh& m, const Prim& freestream,
                        euler::FluxScheme scheme, std::span<const Cons> u,
                        bool second_order, ReferenceScratch& s,
                        std::vector<Cons>& res);

}  // namespace columbia::cart3d::kernels
