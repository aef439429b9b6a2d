// SoA kernel layer for the NSU3D residual and smoother.
//
// Layout rule, chosen by access pattern (measured; see DESIGN.md):
//
//  * Per-EDGE quantities (endpoints, normals, midpoint offsets, viscous
//    metric) live in contiguous per-component real_t arrays on Level.
//    Edge sweeps walk edges in storage order (color-major sort), so each
//    array is a unit-stride stream the prefetcher handles.
//  * Per-NODE quantities are gathered/scattered by node index inside the
//    edge sweeps, so what matters is how many cache lines one node visit
//    touches. They live in fixed-stride per-node component blocks sized
//    to whole cache lines: the prim block packs all eight reconstruction
//    scalars a flux evaluation needs into ONE 64-byte line per node, the
//    gradient block packs gx/gy/gz/min/max into four. A pure
//    component-major layout (F[c * ld + i]) was implemented first and
//    measured performance-neutral: it turns every node visit into 30+
//    distinct line touches and the win from unit-stride components never
//    materializes in gather loops.
//  * The limiter's directional differences (g . dx per edge side) are
//    cached in a per-edge stream and reused verbatim by the flux
//    reconstruction — the two phases evaluate the identical expression.
//
// Bit-identity contract: every kernel here performs exactly the arithmetic
// of the scalar reference path kept as the tests' oracle
// (tests/oracles/nsu3d_reference.hpp), in the same per-node accumulation
// order — layout and access-pattern transforms only. Divisions and square
// roots keep their original operands; values hoisted to setup time (edge
// geometry, 1/volume, p/rho) are computed with the same expressions the
// scalar path evaluated per sweep. Combined with the thread pool's fixed
// chunking, results are bitwise identical for every thread count and to
// the pre-SoA implementation.
#pragma once

#include <array>
#include <cmath>
#include <span>
#include <vector>

#include "euler/flux.hpp"
#include "euler/state.hpp"
#include "linalg/block.hpp"
#include "nsu3d/level.hpp"
#include "support/types.hpp"

namespace columbia::nsu3d {

/// Conservative state per node (same alias as solver.hpp).
using State = std::array<real_t, 6>;

namespace kernels {

/// Chunk grain of every pooled per-node loop, the multigrid layer's
/// included (Nsu3dSolver::kGrain): a fixed constant, so chunk boundaries
/// (and the residual norm's partial sums) never depend on the thread
/// count.
inline constexpr std::size_t kNodeGrain = 256;

/// Per-node component blocks are padded to multiples of this many real_t
/// entries (64 bytes — one cache line) so a node's block never straddles
/// an extra line.
inline constexpr std::size_t kSoaPad = 8;

// Strides (in real_t) of the per-node component blocks.
inline constexpr std::size_t kPrimStride = 8;   // [rho,u,v,w,p,nut,mut,p/rho]
inline constexpr std::size_t kGradStride = 32;  // [gx 6][gy 6][gz 6][min 6][max 6][pad 2]
inline constexpr std::size_t kPhiStride = 8;    // [phi 6][pad 2]
inline constexpr std::size_t kEdqStride = 12;   // [g.d side a 6][g.(-d) side b 6]

// Spalart-Allmaras closure constants (Spalart & Allmaras 1994; the paper's
// reference [8]). Shared by the kernels and the scalar reference.
inline constexpr real_t kCb1 = 0.1355;
inline constexpr real_t kSigma = 2.0 / 3.0;
inline constexpr real_t kCb2 = 0.622;
inline constexpr real_t kKappa = 0.41;
inline constexpr real_t kCw1 = kCb1 / (kKappa * kKappa) + (1.0 + kCb2) / kSigma;
inline constexpr real_t kCw2 = 0.3;
inline constexpr real_t kCw3 = 2.0;
inline constexpr real_t kCv1 = 7.1;
inline constexpr real_t kPrandtl = 0.72;
inline constexpr real_t kPrandtlTurb = 0.9;

/// Primitive variables of a conservative state (mean-flow part).
inline euler::Prim mean_prim(const State& u) {
  const real_t inv = 1.0 / u[0];
  const geom::Vec3 vel{u[1] * inv, u[2] * inv, u[3] * inv};
  const real_t p = (euler::kGamma - 1) * (u[4] - 0.5 * u[0] * dot(vel, vel));
  return {u[0], vel, p};
}

inline bool state_valid(const State& u) {
  for (real_t x : u)
    if (!std::isfinite(x)) return false;
  if (!(u[0] > 0)) return false;
  return mean_prim(u).p > 0;
}

/// Eddy viscosity from the SA working variable.
inline real_t eddy_viscosity(real_t rho, real_t nut, real_t nu_lam) {
  if (nut <= 0) return 0;
  const real_t chi = nut / nu_lam;
  const real_t chi3 = chi * chi * chi;
  const real_t fv1 = chi3 / (chi3 + kCv1 * kCv1 * kCv1);
  return rho * nut * fv1;
}

/// Physical constants the kernels need from the solver configuration.
struct Physics {
  euler::Prim freestream{};
  euler::FluxScheme flux = euler::FluxScheme::Roe;
  real_t mu_lam = 0;   // laminar viscosity (mach / reynolds)
  real_t nut_inf = 0;  // freestream SA working variable
  bool viscous = true;
};

/// Implicit diagonal block of one node. assemble_diag never couples the
/// SA equation to the mean flow, so the 6x6 block of the paper's coupled
/// scheme is a 5x5 mean-flow block plus an SA scalar, and the smoothers
/// solve the two apart. With row and column 5 zero off the diagonal, a 6x6
/// partial-pivoting LU never picks row 5 as a pivot (the test is a strict
/// `>`) and its eliminations add only signed zeros, so the split solves
/// give the 6x6 solve's result bit for bit.
struct ImplicitBlock {
  linalg::BlockMat<5> mean;
  real_t sa = 0;
};

/// Per-level SoA scratch. Persistent across sweeps (vectors keep their
/// capacity). Per-node fields use the fixed-stride component blocks
/// described above; per-edge fields are unit-stride streams. The smoother
/// and second-order fields are sized by the first kernel that writes them,
/// so a level that never runs a phase holds none of its scratch.
struct Scratch {
  std::size_t n = 0;  // node count

  // Primitive cache (AoS Prim is what the Riemann solvers consume) plus
  // per-node scalars the smoother reads: SA working variable, eddy
  // viscosity.
  std::vector<euler::Prim> w;
  std::vector<real_t> nut, mut;

  // Per-node component blocks (see the stride constants): prim block
  // pb[i * kPrimStride + c] packs the six reconstruction scalars
  // [rho, u, v, w, p, nut] plus the eddy viscosity and p/rho into one
  // cache line; gradient block gb packs the three Green-Gauss gradient
  // components and the limiter's neighbor min/max; phi block ph holds the
  // limiter value per component (second order only: sized by the
  // min/max-seeding gradient pass).
  std::vector<real_t> pb, gb, ph;

  // Per-edge stream: the limiter's directional differences g . (+-d) for
  // both edge sides, reused bitwise by the flux reconstruction (sized by
  // the limiter).
  std::vector<real_t> edq;

  // Smoother scratch: wave-speed sums, cached sound speeds, 5+1 blocks.
  std::vector<real_t> wave, snd;
  std::vector<ImplicitBlock> diag;
  /// One block-tridiagonal system along a line (Thomas algorithm scratch).
  template <int N>
  struct Tridiag {
    std::vector<linalg::BlockMat<N>> lower, dd, upper;
    std::vector<linalg::BlockVec<N>> rhs;
    std::vector<linalg::BlockLU<N>> lu;  // factorization scratch
    void reserve(std::size_t len) {
      lower.reserve(len);
      dd.reserve(len);
      upper.reserve(len);
      rhs.reserve(len);
      lu.reserve(len);
    }
    /// Zeroes the system for a line of `len` nodes.
    void assign(std::size_t len) {
      lower.assign(len, linalg::BlockMat<N>{});
      dd.assign(len, linalg::BlockMat<N>{});
      upper.assign(len, linalg::BlockMat<N>{});
      rhs.assign(len, linalg::BlockVec<N>{});
    }
  };
  struct LineScratch {
    Tridiag<5> mean;  // mean-flow blocks
    Tridiag<1> sa;    // SA scalars
  };
  /// One slot per pool thread, each reserved for the level's longest line:
  /// chunks go to whichever thread claims them first, so any slot may meet
  /// any line, and none grows in steady state.
  std::vector<LineScratch> line_scratch;

  /// Sizes the per-node fields every residual reads (the second-order
  /// fields ph and edq, and the smoother fields, are sized by their
  /// kernels).
  void resize(const Level& lvl);
};

// --- Residual phase kernels (all pool-parallel, bit-identical across
// thread counts). residual() runs prim_cache -> gradients (optional) ->
// limiter (optional) -> flux_residual, then one fused node pass applying
// the boundary closures, the fine level's strong-BC filter and (viscous)
// the SA source. The phases are public so benchmarks can time them one by
// one. ---

/// Primitive / reconstruction-scalar cache from the conservative state.
void prim_cache(const Level& lvl, const Physics& phys,
                std::span<const State> u, Scratch& s);

/// Green-Gauss gradients of [rho, u, v, w, p, nut]; when `with_minmax` is
/// set the same edge sweep also accumulates the limiter's neighbor min/max
/// (fused: both accumulate in identical per-node edge order) and seeds the
/// limiter's phi block, sizing it.
void gradients(const Level& lvl, Scratch& s, bool with_minmax);

/// Venkatakrishnan limiter phi from gradients and neighbor min/max;
/// requires gradients(with_minmax) to have run for the same state.
void limiter(const Level& lvl, Scratch& s);

/// Interior edge sweep: zeroes `res`, then accumulates convective (+
/// viscous) fluxes. `second_order` enables the limited reconstruction and
/// requires limiter() to have run for the same state (the reconstruction
/// reuses the limiter's cached directional differences).
void flux_residual(const Level& lvl, const Physics& phys, const Scratch& s,
                   bool second_order, std::vector<State>& res);

/// Spalart-Allmaras source terms (production - destruction).
void sa_source(const Level& lvl, const Physics& phys, const Scratch& s,
               std::vector<State>& res);

/// Full residual: composes the phases above exactly as the solver does.
void residual(const Level& lvl, const Physics& phys, int level,
              std::span<const State> u, bool second_order, Scratch& s,
              std::vector<State>& res);

// --- Smoother kernels ---

/// Wave-speed sums (local time-step denominators) into s.wave; also caches
/// per-node sound speeds in s.snd.
void wave_speeds(const Level& lvl, const Physics& phys, Scratch& s);

/// Assembles the 5+1 point-implicit diagonal blocks into s.diag.
/// Requires prim_cache and wave_speeds to have run for the same state.
void assemble_diag(const Level& lvl, const Physics& phys, real_t cfl,
                   std::span<const State> u, Scratch& s);

/// Point-implicit update sweep: factors each node's 5x5 block and SA
/// scalar and applies the under-relaxed update to u. A singular pivot in
/// either keeps the node's previous state and is counted once on the
/// "resil.singular_pivot" observable.
void point_sweep(const Level& lvl, real_t relax, std::span<const State> f,
                 std::span<const State> r, Scratch& s, std::vector<State>& u);

/// Line-implicit update sweep: a 5x5 block-tridiagonal solve plus a scalar
/// tridiagonal SA solve along each implicit line (off-line couplings stay
/// explicit). A singular pivot in either skips the line and is counted
/// once. Lines are node-disjoint, so reading u for the viscous
/// linearization while other lines update theirs is race-free.
void line_sweep(const Level& lvl, const Physics& phys, real_t relax,
                std::span<const State> f, std::span<const State> r,
                Scratch& s, std::vector<State>& u);

}  // namespace kernels
}  // namespace columbia::nsu3d
