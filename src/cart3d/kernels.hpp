// SoA kernel layer for the Cart3D residual.
//
// The scalar residual recomputed nearly all of its geometry every call:
// cell centers (bit arithmetic per access), face offset vectors, the
// least-squares Gram matrices and their 3x3 inverses, and the limiter's
// eps^2 = (0.3 h)^3 (a pow per face side). All of it is pure geometry —
// constant per mesh level — so LevelGeom hoists it into per-level SoA
// streams built once: per-face endpoint/offset/normal streams in face
// storage order, per-cell centers, Gram inverses (+ singular flag) and
// eps^2. The residual then runs three face sweeps (LSQ rhs + neighbor
// min/max fused; limiter; flux) over unit-stride streams plus blocked
// per-cell state, with the limiter's directional differences cached per
// face and reused bitwise by the reconstruction (identical expression,
// identical inputs).
//
// Bit-identity contract: every kernel performs exactly the arithmetic of
// the scalar reference kept as the tests' oracle
// (tests/oracles/cart3d_reference.hpp) in the same per-cell accumulation
// order. Hoisted values (Gram inverses, eps^2,
// offsets) are computed with the same expressions the scalar path
// evaluated per call. Negated offsets rely only on fl(-t) == -fl(t).
#pragma once

#include <array>
#include <span>
#include <vector>

#include "cartesian/cart_mesh.hpp"
#include "euler/flux.hpp"
#include "support/types.hpp"

namespace columbia::cart3d::kernels {

using euler::Cons;
using euler::Prim;

/// Chunk grain of every pooled cell loop, the multigrid layer's included
/// (Cart3DSolver::kGrain). Cells are stored in SFC order, so contiguous
/// chunks are spatially compact; the constant is fixed so chunk
/// boundaries (and the residual norm's partial sums) never depend on the
/// thread count.
inline constexpr std::size_t kCellGrain = 512;

/// Unit outward normal of a domain-boundary face (axis is encoded as
/// axis or -(axis+1) for the negative direction).
inline geom::Vec3 boundary_normal(const cartesian::CartFace& f) {
  const int a = f.axis >= 0 ? f.axis : -(f.axis + 1);
  const real_t sign = f.axis >= 0 ? 1.0 : -1.0;
  geom::Vec3 n{};
  if (a == 0) n.x = sign;
  if (a == 1) n.y = sign;
  if (a == 2) n.z = sign;
  return n;
}

/// Unit normal of an interior face (+axis direction).
inline geom::Vec3 axis_normal(int axis) {
  geom::Vec3 n{};
  if (axis == 0) n.x = 1;
  if (axis == 1) n.y = 1;
  if (axis == 2) n.z = 1;
  return n;
}

// Strides (in real_t) of the per-cell component blocks; padded so a block
// never straddles an extra cache line.
inline constexpr std::size_t kPrimStride = 8;   // [rho,u,v,w,p] + pad
inline constexpr std::size_t kGradStride = 32;  // [gx 5][gy 5][gz 5][min 5][max 5] + pad
inline constexpr std::size_t kRhsStride = 16;   // [rx 5][ry 5][rz 5] + pad
inline constexpr std::size_t kPhiStride = 8;    // [phi 5] + pad
inline constexpr std::size_t kFdqStride = 10;   // per face: [g.dl 5][g.dr 5]
inline constexpr std::size_t kGinvStride = 8;   // [i00,i01,i02,i11,i12,i22] + pad

/// Per-level geometry, built once per mesh level (everything here is a
/// pure function of the mesh). The streams only a second-order residual
/// reads are built on the level's first second-order call: every coarse
/// level, and every level of a first-order solve, never needs them.
struct LevelGeom {
  bool built = false;               // the first-order streams
  bool second_order_built = false;  // eps2, ginv, singular, dab/dl/dr
  std::size_t cells = 0, faces = 0;

  // Per-cell streams.
  std::vector<real_t> volume;  // CartMesh::cell_volume (fluid-scaled)
  std::vector<real_t> eps2;  // venkat (0.3 h)^3, the scalar path's pow
  std::vector<real_t> ginv;  // kGinvStride-blocked LSQ Gram inverse
  std::vector<unsigned char> singular;  // |det| < 1e-30: keep zero gradient
  std::vector<index_t> cut_cells;       // indices of cut cells, in order

  // Per interior-face streams (face storage order).
  std::vector<index_t> fl, fr;
  std::vector<std::int8_t> axis;
  std::vector<real_t> area;
  std::vector<real_t> dabx, daby, dabz;  // center(right) - center(left)
  std::vector<real_t> dlx, dly, dlz;     // face center - center(left)
  std::vector<real_t> drx, dry, drz;     // face center - center(right)

  // Per boundary-face streams.
  std::vector<index_t> bfl;
  std::vector<real_t> barea;
  std::vector<real_t> bnx, bny, bnz;

  /// Builds what a residual of the given order reads and is not built yet.
  void build(const cartesian::CartMesh& m, bool second_order);
};

/// Per-level SoA scratch (persistent across sweeps). Only `w` serves a
/// first-order residual; the blocked streams serve the second-order one.
struct Scratch {
  std::vector<Prim> w;      // AoS primitives (what the Riemann solvers eat)
  std::vector<real_t> pb;   // kPrimStride-blocked primitive scalars
  std::vector<real_t> gb;   // kGradStride-blocked gradients + min/max
  std::vector<real_t> rb;   // kRhsStride-blocked LSQ right-hand sides
  std::vector<real_t> ph;   // kPhiStride-blocked limiter values
  std::vector<real_t> fdq;  // kFdqStride per-face directional differences
  void resize(const LevelGeom& g, bool second_order);
};

/// Full second-/first-order residual against the precomputed geometry
/// (built for that order). Bit-identical to the scalar oracle for every
/// thread count.
void residual(const LevelGeom& g, const cartesian::CartMesh& m,
              const Prim& freestream, euler::FluxScheme scheme,
              std::span<const Cons> u, bool second_order, Scratch& s,
              std::vector<Cons>& res);

}  // namespace columbia::cart3d::kernels
