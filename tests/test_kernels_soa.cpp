// SoA kernel layer equivalence: the blocked/stream kernels must reproduce
// the scalar oracles (tests/oracles) BIT FOR BIT — same residual, same
// gradient/limiter intermediates, and the 5+1 smoother sweeps the same
// updates as the coupled 6x6 one — at every thread count, and the
// temp-free block solves must match their operator*-based formulations
// exactly. These tests are the enforcement arm of the bit-identity
// contract documented in nsu3d/kernels.hpp and cart3d/kernels.hpp.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "cart3d/kernels.hpp"
#include "cart3d/partitioned.hpp"
#include "cartesian/cart_mesh.hpp"
#include "core/exchange_plan.hpp"
#include "geom/components.hpp"
#include "linalg/block.hpp"
#include "linalg/block_tridiag.hpp"
#include "mesh/builders.hpp"
#include "nsu3d/kernels.hpp"
#include "nsu3d/partitioned.hpp"
#include "nsu3d/solver.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "oracles/cart3d_reference.hpp"
#include "oracles/nsu3d_reference.hpp"
#include "smp/pool.hpp"
#include "support/random.hpp"

namespace columbia {
namespace {

using core::ExchangeStrategy;

/// Restores the global pool to a single thread when a test exits.
struct PoolGuard {
  ~PoolGuard() { smp::set_global_threads(1); }
};

// --- NSU3D ---

mesh::UnstructuredMesh small_wing() {
  mesh::WingMeshSpec spec;
  spec.n_wrap = 24;
  spec.n_span = 3;
  spec.n_normal = 10;
  spec.wall_spacing = 1e-4;
  return mesh::make_wing_mesh(spec);
}

nsu3d::kernels::Physics wing_physics(const euler::FlowConditions& fc) {
  nsu3d::kernels::Physics phys;
  phys.freestream = fc.freestream();
  phys.flux = euler::FluxScheme::Roe;
  phys.mu_lam = fc.mach / fc.reynolds;
  phys.nut_inf = 3.0 * phys.mu_lam / phys.freestream.rho;
  phys.viscous = true;
  return phys;
}

/// Smooth non-freestream state so gradients, limiter and SA terms are all
/// exercised with nontrivial values.
std::vector<nsu3d::State> wing_state(const nsu3d::Level& lvl,
                                     const nsu3d::kernels::Physics& phys) {
  std::vector<nsu3d::State> u(std::size_t(lvl.num_nodes));
  for (index_t v = 0; v < lvl.num_nodes; ++v) {
    const geom::Vec3& x = lvl.node_center[std::size_t(v)];
    euler::Prim w = phys.freestream;
    w.rho *= 1.0 + 0.05 * std::sin(1.1 * x.x + 0.4 * x.y);
    w.p *= 1.0 + 0.05 * std::cos(0.8 * x.z + 0.2 * x.x);
    w.vel.x *= 1.0 + 0.03 * std::sin(0.6 * x.y);
    const auto c5 = euler::to_conservative(w);
    for (int c = 0; c < 5; ++c)
      u[std::size_t(v)][std::size_t(c)] = c5[std::size_t(c)];
    u[std::size_t(v)][5] =
        w.rho * phys.nut_inf * (1.0 + 0.2 * std::cos(0.5 * x.x));
  }
  return u;
}

TEST(Nsu3dSoA, ResidualMatchesReferenceBitwiseAcrossThreads) {
  PoolGuard guard;
  const auto m = small_wing();
  nsu3d::LevelOptions lo;
  lo.num_levels = 2;
  const auto levels = nsu3d::build_levels(m, lo);
  euler::FlowConditions fc;
  fc.mach = 0.75;
  fc.reynolds = 3e6;
  const auto phys = wing_physics(fc);

  for (const nsu3d::Level& lvl : levels) {
    const int level = (&lvl == &levels.front()) ? 0 : 1;
    const auto u = wing_state(lvl, phys);

    for (bool second_order : {true, false}) {
      smp::set_global_threads(1);
      nsu3d::kernels::ReferenceScratch rs;
      std::vector<nsu3d::State> ref;
      nsu3d::kernels::residual_reference(lvl, phys, level, u, second_order,
                                         rs, ref);

      for (int threads : {1, 2, 4}) {
        smp::set_global_threads(threads);
        nsu3d::kernels::Scratch s;
        std::vector<nsu3d::State> res;
        nsu3d::kernels::residual(lvl, phys, level, u, second_order, s, res);
        ASSERT_EQ(res.size(), ref.size());
        for (std::size_t i = 0; i < res.size(); ++i)
          for (int c = 0; c < 6; ++c)
            EXPECT_EQ(res[i][std::size_t(c)], ref[i][std::size_t(c)])
                << "level " << level << " order " << second_order << " t="
                << threads << " node " << i << " comp " << c;
      }
    }
  }
}

TEST(Nsu3dSoA, GradientLimiterBlocksMatchReferenceBitwise) {
  // The intermediates, not just the final residual: the blocked gradient /
  // min-max / phi streams must hold exactly the values the scalar
  // reference computes into its AoS arrays.
  PoolGuard guard;
  const auto m = small_wing();
  nsu3d::LevelOptions lo;
  lo.num_levels = 1;
  const auto levels = nsu3d::build_levels(m, lo);
  const nsu3d::Level& lvl = levels[0];
  euler::FlowConditions fc;
  fc.mach = 0.75;
  fc.reynolds = 3e6;
  const auto phys = wing_physics(fc);
  const auto u = wing_state(lvl, phys);

  smp::set_global_threads(1);
  nsu3d::kernels::ReferenceScratch rs;
  std::vector<nsu3d::State> ref;
  nsu3d::kernels::residual_reference(lvl, phys, 0, u, true, rs, ref);

  for (int threads : {1, 4}) {
    smp::set_global_threads(threads);
    nsu3d::kernels::Scratch s;
    std::vector<nsu3d::State> res;
    nsu3d::kernels::residual(lvl, phys, 0, u, true, s, res);

    using nsu3d::kernels::kGradStride;
    using nsu3d::kernels::kPhiStride;
    for (index_t i = 0; i < lvl.num_nodes; ++i) {
      const real_t* g = &s.gb[std::size_t(i) * kGradStride];
      const real_t* p = &s.ph[std::size_t(i) * kPhiStride];
      for (int c = 0; c < 6; ++c) {
        const auto sc = std::size_t(c);
        EXPECT_EQ(g[c], rs.grad[std::size_t(i)][sc].x) << i << "/" << c;
        EXPECT_EQ(g[6 + c], rs.grad[std::size_t(i)][sc].y) << i << "/" << c;
        EXPECT_EQ(g[12 + c], rs.grad[std::size_t(i)][sc].z) << i << "/" << c;
        EXPECT_EQ(g[18 + c], rs.qmin[std::size_t(i)][sc]) << i << "/" << c;
        EXPECT_EQ(g[24 + c], rs.qmax[std::size_t(i)][sc]) << i << "/" << c;
        EXPECT_EQ(p[c], rs.phi[std::size_t(i)][sc]) << i << "/" << c;
      }
    }
  }
}

TEST(Nsu3dSoA, HaloStrategiesBitIdenticalWithPackedComponents) {
  // The component-major halo packing reorders only copies; both exchange
  // strategies must still deliver bit-identical residuals.
  PoolGuard guard;
  smp::set_global_threads(4);
  const auto m = small_wing();
  nsu3d::LevelOptions lo;
  lo.num_levels = 1;
  const auto levels = nsu3d::build_levels(m, lo);
  const nsu3d::Level& lvl = levels[0];
  euler::FlowConditions fc;
  fc.mach = 0.6;
  const auto phys = wing_physics(fc);
  const auto u = wing_state(lvl, phys);
  const euler::Prim inf = fc.freestream();

  const auto plan = nsu3d::build_partition_plan(levels, 4);
  const auto& part = plan.levels[0].part;
  const auto t2t = nsu3d::parallel_residual(lvl, u, inf, part, 4);
  const auto master = nsu3d::parallel_residual(
      lvl, u, inf, part, 4, {ExchangeStrategy::MasterThread, 2});
  EXPECT_EQ(t2t, master);
}

// --- NSU3D smoother: 5+1 blocks against the coupled 6x6 oracle ---

using Block6 = linalg::BlockMat<6>;

/// Bitwise equality of two states (signed zeros and NaN payloads count).
bool same_bits(const std::vector<nsu3d::State>& a,
               const std::vector<nsu3d::State>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(nsu3d::State)) ==
             0;
}

/// Residual, wave speeds and both diagonals of `u` on one level: the 5+1
/// blocks in `k.diag`, the coupled 6x6 blocks in `diag6`.
struct SmootherInputs {
  nsu3d::kernels::Scratch k;
  std::vector<nsu3d::State> r, f;
  std::vector<Block6> diag6;
};

SmootherInputs smoother_inputs(const nsu3d::Level& lvl,
                               const nsu3d::kernels::Physics& phys, int level,
                               const std::vector<nsu3d::State>& u,
                               real_t cfl) {
  namespace K = nsu3d::kernels;
  SmootherInputs in;
  K::residual(lvl, phys, level, u, level == 0, in.k, in.r);
  K::wave_speeds(lvl, phys, in.k);
  K::assemble_diag(lvl, phys, cfl, u, in.k);
  K::assemble_diag_reference(lvl, phys, cfl, u, in.k, in.diag6);
  // A forcing that is neither zero nor the residual, so every update is a
  // nontrivial solve.
  in.f.resize(u.size());
  for (std::size_t i = 0; i < u.size(); ++i)
    for (std::size_t c = 0; c < 6; ++c)
      in.f[i][c] = 0.25 * in.r[i][c] + 1e-6 * real_t(int(i % 7) - 3);
  return in;
}

std::uint64_t singular_pivots() {
  return obs::counter("resil.singular_pivot").value();
}

/// Runs the 5+1 sweep and the 6x6 oracle from the same state and checks
/// they leave bit-identical states and count the same singular pivots;
/// returns the 5+1 sweep's state and pivot count.
std::pair<std::vector<nsu3d::State>, std::uint64_t> sweep_both(
    const nsu3d::Level& lvl, const nsu3d::kernels::Physics& phys, bool lines,
    SmootherInputs& in, const std::vector<nsu3d::State>& u) {
  namespace K = nsu3d::kernels;
  constexpr real_t kRelax = 0.7;
  std::vector<nsu3d::State> got = u, want = u;
  const std::uint64_t p0 = singular_pivots();
  if (lines)
    K::line_sweep(lvl, phys, kRelax, in.f, in.r, in.k, got);
  else
    K::point_sweep(lvl, kRelax, in.f, in.r, in.k, got);
  const std::uint64_t p1 = singular_pivots();
  if (lines)
    K::line_sweep_reference(lvl, phys, kRelax, in.f, in.r, in.k, in.diag6,
                            want);
  else
    K::point_sweep_reference(lvl, kRelax, in.f, in.r, in.diag6, want);
  const std::uint64_t p2 = singular_pivots();
  EXPECT_TRUE(same_bits(got, want)) << (lines ? "line" : "point") << " sweep";
  EXPECT_EQ(p1 - p0, p2 - p1) << "singular pivots, 5+1 vs 6x6";
  return {got, p1 - p0};
}

struct ObsOn {
  ObsOn() { obs::set_enabled(true); }
  ~ObsOn() { obs::set_enabled(false); }
};

TEST(Nsu3dSmoother, SplitBlocksMatchCoupledOracleOnWingLevels) {
  // Levels 0 and 1 of the nsu3d-wing mesh after five W-cycles: the 5+1
  // blocks are the 6x6 blocks' mean-flow part and SA diagonal (nothing
  // couples them), and both sweeps leave the state bit-identical to the
  // 6x6 oracle's, at pool sizes 1 and 4.
  PoolGuard guard;
  mesh::WingMeshSpec spec;
  spec.n_wrap = 64;
  spec.n_span = 12;
  spec.n_normal = 24;
  spec.wall_spacing = 1e-4;
  const auto m = mesh::make_wing_mesh(spec);
  euler::FlowConditions fc;
  fc.mach = 0.75;
  fc.reynolds = 3e6;
  nsu3d::Nsu3dOptions o;
  o.cycle = nsu3d::CycleType::W;
  smp::set_global_threads(4);
  nsu3d::Nsu3dSolver solver(m, fc, o);
  for (int c = 0; c < 5; ++c) solver.run_cycle();
  const auto phys = wing_physics(fc);
  ObsOn obs_on;  // count singular pivots

  for (int level : {0, 1}) {
    const nsu3d::Level& lvl = solver.level(level);
    const std::vector<nsu3d::State> u = solver.solution(level);
    for (int threads : {1, 4}) {
      SCOPED_TRACE("level " + std::to_string(level) + ", pool size " +
                   std::to_string(threads));
      smp::set_global_threads(threads);
      SmootherInputs in = smoother_inputs(lvl, phys, level, u, o.cfl);
      for (std::size_t i = 0; i < in.diag6.size(); ++i) {
        const Block6& d6 = in.diag6[i];
        const auto& d = in.k.diag[i];
        const auto bits = [](real_t x) { return std::bit_cast<std::uint64_t>(x); };
        bool same = bits(d6(5, 5)) == bits(d.sa);
        for (int rr = 0; rr < 5; ++rr) {
          same = same && d6(rr, 5) == 0 && d6(5, rr) == 0;
          for (int cc = 0; cc < 5; ++cc)
            same = same && bits(d6(rr, cc)) == bits(d.mean(rr, cc));
        }
        ASSERT_TRUE(same) << "diagonal block of node " << i;
      }
      for (bool lines : {false, true}) {
        const auto [got, pivots] = sweep_both(lvl, phys, lines, in, u);
        EXPECT_FALSE(same_bits(got, u)) << "the sweep updated nothing";
        EXPECT_EQ(pivots, 0u);
      }
    }
  }
}

TEST(Nsu3dSmoother, SingularAndNanPivotsMatchCoupledOracle) {
  // A singular SA pivot and a singular mean-flow pivot each skip their
  // line (and node) and count one singular pivot, as the 6x6 solve does;
  // a NaN SA pivot is not singular (the 6x6 test is `best < tiny`), and
  // the NaN it spreads leaves every node of its line unchanged.
  PoolGuard guard;
  ObsOn obs_on;
  const auto m = small_wing();
  nsu3d::LevelOptions lo;
  lo.num_levels = 1;
  const auto levels = nsu3d::build_levels(m, lo);
  const nsu3d::Level& lvl = levels[0];
  euler::FlowConditions fc;
  fc.mach = 0.75;
  fc.reynolds = 3e6;
  const auto phys = wing_physics(fc);
  const auto u = wing_state(lvl, phys);
  std::size_t li = 0;
  while (lvl.lines.lines[li].size() < 4) ++li;
  const auto& line = lvl.lines.lines[li];
  // The line's first node: its block is the line solve's first pivot.
  const std::size_t i0 = std::size_t(line[0]);

  enum class Poison { SaZero, MeanZero, SaNan };
  for (Poison poison : {Poison::SaZero, Poison::MeanZero, Poison::SaNan}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE("poison " + std::to_string(int(poison)) + ", pool size " +
                   std::to_string(threads));
      smp::set_global_threads(threads);
      SmootherInputs in = smoother_inputs(lvl, phys, 0, u, 20.0);
      auto& d = in.k.diag[i0];
      Block6& d6 = in.diag6[i0];
      switch (poison) {
        case Poison::SaZero:
          d.sa = d6(5, 5) = 0;
          break;
        case Poison::MeanZero:
          d.mean = {};
          for (int rr = 0; rr < 5; ++rr)
            for (int cc = 0; cc < 5; ++cc) d6(rr, cc) = 0;
          break;
        case Poison::SaNan:
          d.sa = d6(5, 5) = std::numeric_limits<real_t>::quiet_NaN();
          break;
      }
      const std::uint64_t want_pivots = poison == Poison::SaNan ? 0 : 1;
      for (bool lines : {false, true}) {
        const auto [got, pivots] = sweep_both(lvl, phys, lines, in, u);
        EXPECT_EQ(pivots, want_pivots);
        // The poisoned node keeps its state; so does its whole line.
        const auto& skipped =
            lines ? line : std::vector<index_t>{index_t(i0)};
        for (index_t v : skipped)
          EXPECT_EQ(std::memcmp(&got[std::size_t(v)], &u[std::size_t(v)],
                                sizeof(nsu3d::State)),
                    0)
              << (lines ? "line" : "point") << " sweep moved node " << v;
        EXPECT_FALSE(same_bits(got, u)) << "the sweep updated nothing";
      }
    }
  }
}

// --- Cart3D ---

cartesian::CartMesh sphere_mesh() {
  const auto sphere = geom::make_sphere({0, 0, 0}, 0.4, 16, 32);
  geom::Aabb dom;
  dom.expand({-1.5, -1.5, -1.5});
  dom.expand({1.5, 1.5, 1.5});
  cartesian::CartMeshOptions mopt;
  mopt.base_n = 8;
  mopt.max_level = 2;
  return cartesian::build_cart_mesh(sphere, dom, mopt);
}

std::vector<euler::Cons> sphere_state(const cartesian::CartMesh& m,
                                      const euler::Prim& inf) {
  std::vector<euler::Cons> u(m.cells.size());
  for (std::size_t i = 0; i < m.cells.size(); ++i) {
    euler::Prim w = inf;
    const geom::Vec3 x = m.cell_center(m.cells[i]);
    w.rho *= 1.0 + 0.04 * std::sin(1.3 * x.x + 0.5 * x.y);
    w.p *= 1.0 + 0.04 * std::cos(0.9 * x.z);
    u[i] = euler::to_conservative(w);
  }
  return u;
}

TEST(Cart3dSoA, ResidualMatchesReferenceBitwiseAcrossThreads) {
  PoolGuard guard;
  const auto m = sphere_mesh();
  euler::FlowConditions fc;
  fc.mach = 0.5;
  fc.alpha_deg = 2.0;
  const euler::Prim inf = fc.freestream();
  const auto u = sphere_state(m, inf);

  cart3d::kernels::LevelGeom geomc;
  geomc.build(m, true);

  for (bool second_order : {true, false}) {
    smp::set_global_threads(1);
    cart3d::kernels::ReferenceScratch rs;
    std::vector<euler::Cons> ref;
    cart3d::kernels::residual_reference(m, inf, euler::FluxScheme::Roe, u,
                                        second_order, rs, ref);

    for (int threads : {1, 2, 4}) {
      smp::set_global_threads(threads);
      cart3d::kernels::Scratch s;
      std::vector<euler::Cons> res;
      cart3d::kernels::residual(geomc, m, inf, euler::FluxScheme::Roe, u,
                                second_order, s, res);
      ASSERT_EQ(res.size(), ref.size());
      for (std::size_t i = 0; i < res.size(); ++i)
        for (int c = 0; c < 5; ++c)
          EXPECT_EQ(res[i][std::size_t(c)], ref[i][std::size_t(c)])
              << "order " << second_order << " t=" << threads << " cell "
              << i << " comp " << c;
    }
  }
}

TEST(Cart3dSoA, HaloStrategiesBitIdenticalWithPackedComponents) {
  PoolGuard guard;
  smp::set_global_threads(4);
  const auto m = sphere_mesh();
  euler::FlowConditions fc;
  fc.mach = 0.5;
  fc.alpha_deg = 2.0;
  const euler::Prim inf = fc.freestream();
  const auto u = sphere_state(m, inf);

  const auto part = cartesian::partition_cells(m, 4);
  const auto t2t = cart3d::parallel_residual(m, u, inf, part, 4);
  const auto master =
      cart3d::parallel_residual(m, u, inf, part, 4, euler::FluxScheme::Roe,
                                {ExchangeStrategy::MasterThread, 2});
  EXPECT_EQ(t2t, master);
}

// --- Block solves ---

template <int N>
linalg::BlockMat<N> random_mat(Xoshiro256& rng, real_t diag_boost) {
  linalg::BlockMat<N> m;
  for (int i = 0; i < N; ++i)
    for (int j = 0; j < N; ++j) m(i, j) = rng.uniform(-1, 1);
  for (int i = 0; i < N; ++i) m(i, i) += diag_boost;
  return m;
}

template <int N>
linalg::BlockVec<N> random_vec(Xoshiro256& rng) {
  linalg::BlockVec<N> v;
  for (int i = 0; i < N; ++i) v[i] = rng.uniform(-1, 1);
  return v;
}

TEST(BlockSolvesSoA, MsubMatchesTempFormBitwise) {
  // msub promises exactly `r -= m * x` / `r -= x * y` without the
  // temporary; the accumulation order inside is identical, so the results
  // must be bit-equal, not merely close.
  Xoshiro256 rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const auto m = random_mat<6>(rng, 0.0);
    const auto x = random_vec<6>(rng);
    auto r1 = random_vec<6>(rng);
    auto r2 = r1;
    linalg::msub(r1, m, x);
    r2 -= m * x;
    for (int i = 0; i < 6; ++i) EXPECT_EQ(r1[i], r2[i]) << trial << "/" << i;

    const auto a = random_mat<6>(rng, 0.0);
    const auto b = random_mat<6>(rng, 0.0);
    auto m1 = random_mat<6>(rng, 0.0);
    auto m2 = m1;
    linalg::msub(m1, a, b);
    m2 -= a * b;
    for (int i = 0; i < 6; ++i)
      for (int j = 0; j < 6; ++j)
        EXPECT_EQ(m1(i, j), m2(i, j)) << trial << "/" << i << "," << j;
  }
}

TEST(BlockSolvesSoA, MatrixSolveMatchesColumnSolvesBitwise) {
  // BlockLU::solve(BlockMat) advances all columns together; per element it
  // must apply the identical update chain a column-by-column solve would.
  Xoshiro256 rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const auto a = random_mat<6>(rng, 3.0);
    const auto b = random_mat<6>(rng, 0.0);
    linalg::BlockLU<6> lu;
    ASSERT_TRUE(lu.factor(a));
    const auto x = lu.solve(b);
    for (int c = 0; c < 6; ++c) {
      linalg::BlockVec<6> col;
      for (int i = 0; i < 6; ++i) col[i] = b(i, c);
      const auto xc = lu.solve(col);
      for (int i = 0; i < 6; ++i) EXPECT_EQ(x(i, c), xc[i]) << trial;
    }
  }
}

/// The pre-msub block-tridiagonal formulation, kept verbatim as the
/// reference the production solver must reproduce bitwise.
template <int N>
bool solve_block_tridiag_naive(std::vector<linalg::BlockMat<N>>& lower,
                               std::vector<linalg::BlockMat<N>>& diag,
                               std::vector<linalg::BlockMat<N>>& upper,
                               std::vector<linalg::BlockVec<N>>& rhs) {
  const std::size_t n = diag.size();
  if (n == 0) return true;
  std::vector<linalg::BlockLU<N>> lu(n);
  if (!lu[0].factor(diag[0])) return false;
  for (std::size_t i = 1; i < n; ++i) {
    const linalg::BlockMat<N> m = lu[i - 1].solve(upper[i - 1]);
    diag[i] -= lower[i] * m;
    const linalg::BlockVec<N> r = lu[i - 1].solve(rhs[i - 1]);
    rhs[i] -= lower[i] * r;
    if (!lu[i].factor(diag[i])) return false;
  }
  rhs[n - 1] = lu[n - 1].solve(rhs[n - 1]);
  for (std::size_t i = n - 1; i-- > 0;) {
    linalg::BlockVec<N> r = rhs[i];
    r -= upper[i] * rhs[i + 1];
    rhs[i] = lu[i].solve(r);
  }
  return true;
}

TEST(BlockSolvesSoA, TridiagMatchesNaiveFormulationBitwise) {
  Xoshiro256 rng(19);
  for (std::size_t n : {1u, 2u, 5u, 16u}) {
    std::vector<linalg::BlockMat<6>> lo(n), dg(n), up(n);
    std::vector<linalg::BlockVec<6>> rhs(n);
    for (std::size_t i = 0; i < n; ++i) {
      lo[i] = random_mat<6>(rng, 0.0);
      dg[i] = random_mat<6>(rng, 5.0);
      up[i] = random_mat<6>(rng, 0.0);
      rhs[i] = random_vec<6>(rng);
    }
    auto lo2 = lo;
    auto dg2 = dg;
    auto up2 = up;
    auto rhs2 = rhs;
    ASSERT_TRUE(linalg::solve_block_tridiag<6>(lo, dg, up, rhs));
    ASSERT_TRUE(solve_block_tridiag_naive<6>(lo2, dg2, up2, rhs2));
    for (std::size_t i = 0; i < n; ++i)
      for (int c = 0; c < 6; ++c)
        EXPECT_EQ(rhs[i][c], rhs2[i][c]) << "n=" << n << " row " << i;
  }
}

}  // namespace
}  // namespace columbia
