// SoA kernel layer equivalence: the blocked/stream kernels must reproduce
// the retained scalar reference paths BIT FOR BIT — same residual, same
// gradient/limiter intermediates — at every thread count, and the
// temp-free block solves must match their operator*-based formulations
// exactly. These tests are the enforcement arm of the bit-identity
// contract documented in nsu3d/kernels.hpp and cart3d/kernels.hpp.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
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
