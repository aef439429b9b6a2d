#include <gtest/gtest.h>

#include "cart3d/solver.hpp"
#include "geom/components.hpp"

namespace columbia::cart3d {
namespace {

using cartesian::CartMesh;
using geom::Aabb;

Aabb domain3() {
  Aabb d;
  d.expand({-1.5, -1.5, -1.5});
  d.expand({1.5, 1.5, 1.5});
  return d;
}

CartMesh sphere_mesh(int base_n = 8, int max_level = 2) {
  const auto sphere = geom::make_sphere({0, 0, 0}, 0.4, 16, 32);
  cartesian::CartMeshOptions opt;
  opt.base_n = base_n;
  opt.max_level = max_level;
  return cartesian::build_cart_mesh(sphere, domain3(), opt);
}

TEST(Cart3D, FreestreamIsExactlyPreservedOnUniformMesh) {
  // With no geometry, the freestream is an exact steady solution; one
  // cycle must not disturb it (residual at machine zero).
  const CartMesh m = cartesian::build_uniform_mesh(domain3(), 8);
  euler::FlowConditions fc;
  fc.mach = 0.5;
  fc.alpha_deg = 3.0;
  Cart3DSolver solver(m, fc);
  EXPECT_LT(solver.residual_norm(), 1e-12);
  solver.run_cycle();
  EXPECT_LT(solver.residual_norm(), 1e-12);
}

TEST(Cart3D, FreestreamPreservedAcrossRefinementJumps) {
  // Freestream preservation on a mesh with hanging faces checks that the
  // face areas close each control volume exactly.
  const CartMesh m = sphere_mesh();
  euler::FlowConditions fc;
  fc.mach = 0.0;  // static gas: pressure must stay uniform
  Cart3DSolver solver(m, fc);
  // A static gas around a body is an exact solution (wall flux = p n sums
  // against the closed cell boundary).
  EXPECT_LT(solver.residual_norm(), 1e-10);
}

TEST(Cart3D, SubsonicSphereConverges) {
  const CartMesh m = sphere_mesh();
  euler::FlowConditions fc;
  fc.mach = 0.3;
  SolverOptions opt;
  opt.mg_levels = 1;
  opt.cfl = 1.0;
  Cart3DSolver solver(m, fc, opt);
  const auto hist = solver.solve(300, 2);
  // Two orders of residual reduction single-grid; multigrid goes deeper
  // (see MultigridConvergesFasterThanSingleGrid).
  EXPECT_LT(hist.back(), hist.front() * 1.1e-2);
}

TEST(Cart3D, MultigridConvergesFasterThanSingleGrid) {
  const CartMesh m = sphere_mesh();
  euler::FlowConditions fc;
  fc.mach = 0.3;

  SolverOptions single;
  single.mg_levels = 1;
  Cart3DSolver s1(m, fc, single);

  SolverOptions mg;
  mg.mg_levels = 3;
  Cart3DSolver s3(m, fc, mg);

  const int cycles = 40;
  const auto h1 = s1.solve(cycles, 12);
  const auto h3 = s3.solve(cycles, 12);
  // Same cycle count: multigrid must reach a lower residual.
  EXPECT_LT(h3.back(), h1.back());
}

TEST(Cart3D, WCycleVisitCountsMatchPaper) {
  const CartMesh m = cartesian::build_uniform_mesh(
      domain3(), 16, cartesian::SfcKind::PeanoHilbert, 3);
  euler::FlowConditions fc;
  SolverOptions opt;
  opt.mg_levels = 4;
  opt.cycle = CycleType::W;
  Cart3DSolver solver(m, fc, opt);
  ASSERT_EQ(solver.num_levels(), 4);
  // Coarsest is entered once per visit of its parent (no double descend
  // into the last level).
  EXPECT_EQ(core::cycle_visits(solver.num_levels(), opt.cycle),
            (std::vector<index_t>{1, 2, 4, 4}));
}

TEST(Cart3D, SupersonicSphereRunsStably) {
  // The paper's SSLV case runs at Mach 2.6 (Fig. 20). Use the robust
  // scheme combination on the sphere.
  const CartMesh m = sphere_mesh(8, 1);
  euler::FlowConditions fc;
  fc.mach = 2.6;
  fc.alpha_deg = 2.09;
  fc.beta_deg = 0.8;
  SolverOptions opt;
  opt.flux = euler::FluxScheme::VanLeer;
  opt.cfl = 0.8;
  opt.mg_levels = 1;
  Cart3DSolver solver(m, fc, opt);
  const auto hist = solver.solve(60, 2);
  // Residual must drop (stability), final state valid everywhere.
  EXPECT_LT(hist.back(), hist.front());
  for (const auto& u : solver.solution()) EXPECT_TRUE(euler::is_valid(u));
}

TEST(Cart3D, DragPositiveOnSphere) {
  const CartMesh m = sphere_mesh();
  euler::FlowConditions fc;
  fc.mach = 0.3;
  Cart3DSolver solver(m, fc);
  solver.solve(120, 3);
  const Forces f = solver.integrate_forces();
  // Inviscid subsonic flow has small (spurious numerical) drag; the force
  // must at least be finite and the x-force should dominate z for alpha=0.
  EXPECT_TRUE(std::isfinite(f.cd));
  EXPECT_TRUE(std::isfinite(f.cl));
}

TEST(Cart3D, LevelWorkShrinksWithLevel) {
  const CartMesh m = sphere_mesh();
  euler::FlowConditions fc;
  SolverOptions opt;
  opt.mg_levels = 3;
  Cart3DSolver solver(m, fc, opt);
  for (int l = 1; l < solver.num_levels(); ++l)
    EXPECT_LT(solver.mesh(l).num_cells(), solver.mesh(l - 1).num_cells());
}

TEST(Cart3D, SslvMeshSolves) {
  // End-to-end smoke test on the paper's flagship geometry (scaled down).
  const auto sslv = geom::make_sslv(0.1, 1);
  Aabb dom;
  dom.expand({-0.4, -0.7, -0.7});
  dom.expand({1.4, 0.7, 0.7});
  cartesian::CartMeshOptions mopt;
  mopt.base_n = 8;
  mopt.max_level = 2;
  const CartMesh m = cartesian::build_cart_mesh(sslv, dom, mopt);
  ASSERT_GT(m.num_cut_cells(), 100);

  euler::FlowConditions fc;
  fc.mach = 2.6;
  fc.alpha_deg = 2.09;
  fc.beta_deg = 0.8;
  SolverOptions opt;
  opt.flux = euler::FluxScheme::VanLeer;
  opt.cfl = 0.6;
  opt.mg_levels = 2;
  opt.second_order = false;  // robustness at this mesh density
  Cart3DSolver solver(m, fc, opt);
  const auto hist = solver.solve(30, 1.5);
  EXPECT_LT(hist.back(), hist.front());
  for (const auto& u : solver.solution()) EXPECT_TRUE(euler::is_valid(u));
}

}  // namespace
}  // namespace columbia::cart3d
