// Thread-count equivalence and edge-reorder properties of the solver
// kernels. The pool's determinism contract (smp/pool.hpp) plus colored
// scatter loops promise bit-identical results for every thread count;
// these tests hold the solvers to that promise.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "cart3d/solver.hpp"
#include "geom/components.hpp"
#include "mesh/builders.hpp"
#include "nsu3d/solver.hpp"
#include "smp/pool.hpp"

namespace columbia {
namespace {

/// Restores the global pool to a single thread when a test exits.
struct PoolGuard {
  ~PoolGuard() { smp::set_global_threads(1); }
};

mesh::UnstructuredMesh small_wing() {
  mesh::WingMeshSpec spec;
  spec.n_wrap = 24;
  spec.n_span = 3;
  spec.n_normal = 10;
  spec.wall_spacing = 1e-4;
  return mesh::make_wing_mesh(spec);
}

std::vector<real_t> run_nsu3d(const mesh::UnstructuredMesh& m,
                              nsu3d::SmootherKind smoother, int threads) {
  PoolGuard guard;
  smp::set_global_threads(threads);
  euler::FlowConditions fc;
  fc.mach = 0.75;
  fc.reynolds = 3e6;
  nsu3d::Nsu3dOptions o;
  o.mg_levels = 3;
  o.smoother = smoother;
  nsu3d::Nsu3dSolver s(m, fc, o);
  return s.solve(6, 10);
}

TEST(ThreadEquivalence, Nsu3dLineImplicitHistoryBitIdentical) {
  const auto m = small_wing();
  const auto h1 = run_nsu3d(m, nsu3d::SmootherKind::LineImplicit, 1);
  const auto h4 = run_nsu3d(m, nsu3d::SmootherKind::LineImplicit, 4);
  ASSERT_EQ(h1.size(), h4.size());
  for (std::size_t i = 0; i < h1.size(); ++i)
    EXPECT_EQ(h1[i], h4[i]) << "cycle " << i;
}

TEST(ThreadEquivalence, Nsu3dPointImplicitHistoryBitIdentical) {
  const auto m = small_wing();
  const auto h1 = run_nsu3d(m, nsu3d::SmootherKind::PointImplicit, 1);
  const auto h3 = run_nsu3d(m, nsu3d::SmootherKind::PointImplicit, 3);
  ASSERT_EQ(h1.size(), h3.size());
  for (std::size_t i = 0; i < h1.size(); ++i)
    EXPECT_EQ(h1[i], h3[i]) << "cycle " << i;
}

TEST(ThreadEquivalence, Cart3dHistoryBitIdentical) {
  geom::Aabb domain;
  domain.expand({-1.5, -1.5, -1.5});
  domain.expand({1.5, 1.5, 1.5});
  const auto sphere = geom::make_sphere({0, 0, 0}, 0.4, 16, 32);
  cartesian::CartMeshOptions mo;
  mo.base_n = 8;
  mo.max_level = 2;
  const auto m = cartesian::build_cart_mesh(sphere, domain, mo);

  euler::FlowConditions fc;
  fc.mach = 0.3;
  cart3d::SolverOptions o;
  o.mg_levels = 2;
  auto run = [&](int threads) {
    PoolGuard guard;
    smp::set_global_threads(threads);
    cart3d::Cart3DSolver s(m, fc, o);
    return s.solve(8, 12);
  };
  const auto h1 = run(1);
  const auto h4 = run(4);
  ASSERT_EQ(h1.size(), h4.size());
  for (std::size_t i = 0; i < h1.size(); ++i)
    EXPECT_EQ(h1[i], h4[i]) << "cycle " << i;
}

TEST(ColorReorder, SpansAreConflictFree) {
  // The property the threaded scatter relies on: within one color span,
  // every node appears in at most one edge.
  const auto m = small_wing();
  nsu3d::LevelOptions lo;
  lo.num_levels = 2;
  const auto levels = nsu3d::build_levels(m, lo);
  for (const nsu3d::Level& lvl : levels) {
    ASSERT_GE(lvl.color_offsets.size(), 2u);
    EXPECT_EQ(lvl.color_offsets.front(), 0u);
    EXPECT_EQ(lvl.color_offsets.back(), lvl.edges.size());
    std::vector<int> stamp(std::size_t(lvl.num_nodes), -1);
    for (std::size_t c = 0; c + 1 < lvl.color_offsets.size(); ++c) {
      for (std::size_t e = lvl.color_offsets[c]; e < lvl.color_offsets[c + 1];
           ++e) {
        const auto [a, b] = lvl.edges[e];
        ASSERT_NE(stamp[std::size_t(a)], int(c)) << "node " << a;
        ASSERT_NE(stamp[std::size_t(b)], int(c)) << "node " << b;
        stamp[std::size_t(a)] = int(c);
        stamp[std::size_t(b)] = int(c);
      }
    }
  }
}

}  // namespace
}  // namespace columbia
