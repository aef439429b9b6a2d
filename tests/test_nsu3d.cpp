#include <gtest/gtest.h>
#include <malloc.h>

#include "mesh/builders.hpp"
#include "nsu3d/partitioned.hpp"
#include "nsu3d/solver.hpp"
#include "smp/pool.hpp"

namespace columbia::nsu3d {
namespace {

mesh::UnstructuredMesh small_wing() {
  mesh::WingMeshSpec spec;
  spec.n_wrap = 24;
  spec.n_span = 3;
  spec.n_normal = 10;
  spec.wall_spacing = 1e-4;
  return mesh::make_wing_mesh(spec);
}

TEST(Levels, HierarchyShrinksGeometrically) {
  const auto m = small_wing();
  LevelOptions opt;
  opt.num_levels = 5;
  const auto levels = build_levels(m, opt);
  ASSERT_GE(levels.size(), 3u);
  for (std::size_t l = 1; l < levels.size(); ++l) {
    const real_t ratio = real_t(levels[l - 1].num_nodes) /
                         real_t(levels[l].num_nodes);
    EXPECT_GT(ratio, 3.0) << "level " << l;
  }
}

TEST(Levels, CoarseVolumesConserved) {
  const auto m = small_wing();
  LevelOptions opt;
  opt.num_levels = 4;
  const auto levels = build_levels(m, opt);
  real_t v0 = 0, vl = 0;
  for (real_t v : levels[0].node_volume) v0 += v;
  for (real_t v : levels.back().node_volume) vl += v;
  EXPECT_NEAR(vl, v0, 1e-8 * std::abs(v0));
}

TEST(Levels, CoarseEdgeNormalsStillClose) {
  // The accumulated coarse closure must still telescope: for each coarse
  // node, signed edge normals + boundary normals sum to ~0.
  const auto m = small_wing();
  LevelOptions opt;
  opt.num_levels = 3;
  const auto levels = build_levels(m, opt);
  const Level& c = levels[1];
  std::vector<geom::Vec3> sum(std::size_t(c.num_nodes));
  for (std::size_t e = 0; e < c.edges.size(); ++e) {
    const auto [a, b] = c.edges[e];
    sum[std::size_t(a)] += c.edge_normal(e);
    sum[std::size_t(b)] -= c.edge_normal(e);
  }
  for (index_t v = 0; v < c.num_nodes; ++v)
    for (const geom::Vec3& bn : c.boundary_normal[std::size_t(v)])
      sum[std::size_t(v)] += bn;
  for (const geom::Vec3& s : sum) EXPECT_LT(norm(s), 1e-10);
}

TEST(Levels, WallDistancePropagatesToCoarse) {
  const auto m = small_wing();
  LevelOptions opt;
  opt.num_levels = 3;
  const auto levels = build_levels(m, opt);
  real_t max_d = 0;
  for (real_t d : levels[1].wall_distance) max_d = std::max(max_d, d);
  EXPECT_GT(max_d, 1.0);  // farfield agglomerates are far from the wall
}

TEST(Nsu3d, FreestreamPreservedInviscid) {
  // Inviscid mode on the wing mesh: a symmetric airfoil at freestream
  // init; the scheme must not blow up in one cycle and the residual stays
  // finite (the wing disturbs the freestream, so it is not zero).
  const auto m = small_wing();
  euler::FlowConditions fc;
  fc.mach = 0.5;
  Nsu3dOptions o;
  o.viscous = false;
  o.mg_levels = 1;
  Nsu3dSolver s(m, fc, o);
  const real_t r0 = s.residual_norm();
  EXPECT_TRUE(std::isfinite(r0));
  s.run_cycle();
  EXPECT_TRUE(std::isfinite(s.residual_norm()));
}

TEST(Nsu3d, ConvergesTwoOrders) {
  const auto m = small_wing();
  euler::FlowConditions fc;
  fc.mach = 0.75;
  fc.reynolds = 3e6;
  Nsu3dOptions o;
  o.mg_levels = 3;
  Nsu3dSolver s(m, fc, o);
  const auto h = s.solve(60, 2);
  EXPECT_LT(h.back(), h.front() * 1.5e-2);
}

TEST(Nsu3d, MultigridBeatsSingleGrid) {
  const auto m = small_wing();
  euler::FlowConditions fc;
  fc.mach = 0.75;
  Nsu3dOptions single;
  single.mg_levels = 1;
  Nsu3dOptions mg;
  mg.mg_levels = 3;
  Nsu3dSolver s1(m, fc, single);
  Nsu3dSolver s3(m, fc, mg);
  const auto h1 = s1.solve(25, 10);
  const auto h3 = s3.solve(25, 10);
  EXPECT_LT(h3.back(), h1.back());
}

TEST(Nsu3d, LineSmootherBeatsPointSmootherOnStretchedMesh) {
  // The paper's central algorithmic claim (Sec. III): line-implicit
  // smoothing overcomes the anisotropy-induced stiffness.
  const auto m = small_wing();
  euler::FlowConditions fc;
  fc.mach = 0.75;
  Nsu3dOptions point;
  point.mg_levels = 2;
  point.smoother = SmootherKind::PointImplicit;
  Nsu3dOptions line = point;
  line.smoother = SmootherKind::LineImplicit;
  Nsu3dSolver sp(m, fc, point);
  Nsu3dSolver sl(m, fc, line);
  const auto hp = sp.solve(25, 10);
  const auto hl = sl.solve(25, 10);
  EXPECT_LT(hl.back(), hp.back());
}

TEST(Nsu3d, WallNodesStayNoSlip) {
  const auto m = small_wing();
  euler::FlowConditions fc;
  fc.mach = 0.75;
  Nsu3dOptions o;
  o.mg_levels = 2;
  Nsu3dSolver s(m, fc, o);
  s.run_cycle();
  s.run_cycle();
  const Level& lvl = s.level(0);
  const auto sol = s.solution();
  for (index_t v = 0; v < lvl.num_nodes; ++v) {
    if (!lvl.is_wall_node(v)) continue;
    EXPECT_DOUBLE_EQ(sol[std::size_t(v)][1], 0.0);
    EXPECT_DOUBLE_EQ(sol[std::size_t(v)][2], 0.0);
    EXPECT_DOUBLE_EQ(sol[std::size_t(v)][3], 0.0);
    EXPECT_DOUBLE_EQ(sol[std::size_t(v)][5], 0.0);
  }
}

TEST(Nsu3d, WCycleVisitCounts) {
  const auto m = small_wing();
  euler::FlowConditions fc;
  Nsu3dOptions o;
  o.mg_levels = 4;
  o.cycle = CycleType::W;
  Nsu3dSolver s(m, fc, o);
  ASSERT_EQ(s.num_levels(), 4);
  EXPECT_EQ(core::cycle_visits(s.num_levels(), o.cycle),
            (std::vector<index_t>{1, 2, 4, 4}));
}

TEST(Nsu3d, ForcesFiniteAfterSolve) {
  const auto m = small_wing();
  euler::FlowConditions fc;
  fc.mach = 0.75;
  Nsu3dOptions o;
  o.mg_levels = 3;
  Nsu3dSolver s(m, fc, o);
  s.solve(30, 2);
  const Forces f = s.integrate_forces();
  EXPECT_TRUE(std::isfinite(f.cl));
  EXPECT_TRUE(std::isfinite(f.cd));
}

TEST(Partitioned, PlanCoversAllLevels) {
  const auto m = small_wing();
  LevelOptions lo;
  lo.num_levels = 3;
  const auto levels = build_levels(m, lo);
  const auto plan = build_partition_plan(levels, 8);
  ASSERT_EQ(plan.levels.size(), levels.size());
  for (std::size_t l = 0; l < levels.size(); ++l) {
    EXPECT_EQ(index_t(plan.levels[l].part.size()), levels[l].num_nodes);
    for (index_t p : plan.levels[l].part) {
      EXPECT_GE(p, 0);
      EXPECT_LT(p, 8);
    }
  }
}

TEST(Partitioned, LinesNeverBroken) {
  const auto m = small_wing();
  LevelOptions lo;
  lo.num_levels = 2;
  const auto levels = build_levels(m, lo);
  ASSERT_GT(levels[0].lines.longest(), 1);
  const auto plan = build_partition_plan(levels, 6);
  EXPECT_TRUE(lines_unbroken(levels[0], plan.levels[0].part));
}

TEST(Partitioned, CommDegreeModest) {
  // The paper quotes max degree 18 for the fine-grid communication graph
  // and 19 for the inter-grid graph; small decompositions stay well below.
  const auto m = small_wing();
  LevelOptions lo;
  lo.num_levels = 3;
  const auto levels = build_levels(m, lo);
  const auto plan = build_partition_plan(levels, 8);
  EXPECT_LE(core::ExchangePlan(halo_requests(levels[0], plan.levels[0].part, 8))
                .max_neighbors(),
            19);
  EXPECT_LE(plan.levels[0].intergrid_degree, 20);
}

TEST(Partitioned, ParallelResidualMatchesSerialStructure) {
  // The halo machinery end-to-end: the rank-parallel first-order residual
  // equals a serial evaluation up to floating-point summation order.
  const auto m = small_wing();
  LevelOptions lo;
  lo.num_levels = 1;
  const auto levels = build_levels(m, lo);
  const Level& lvl = levels[0];

  euler::FlowConditions fc;
  fc.mach = 0.6;
  const euler::Prim inf = fc.freestream();
  std::vector<State> u(std::size_t(lvl.num_nodes));
  // A smooth, non-trivial field: freestream perturbed by position.
  for (index_t v = 0; v < lvl.num_nodes; ++v) {
    const geom::Vec3& x = lvl.node_center[std::size_t(v)];
    euler::Prim w = inf;
    w.rho *= 1.0 + 0.05 * std::sin(x.x + 0.3 * x.y);
    w.p *= 1.0 + 0.05 * std::cos(0.7 * x.z);
    const auto c5 = euler::to_conservative(w);
    for (int c = 0; c < 5; ++c) u[std::size_t(v)][std::size_t(c)] = c5[std::size_t(c)];
    u[std::size_t(v)][5] = 1e-5 * w.rho;
  }

  const auto plan = build_partition_plan(levels, 4);
  const auto par = parallel_residual(lvl, u, inf, plan.levels[0].part, 4);
  // Serial reference: one "partition".
  std::vector<index_t> one(std::size_t(lvl.num_nodes), 0);
  const auto ser = parallel_residual(lvl, u, inf, one, 1);
  ASSERT_EQ(par.size(), ser.size());
  real_t scale = 0;
  for (const auto& r : ser)
    for (real_t x : r) scale = std::max(scale, std::abs(x));
  for (std::size_t i = 0; i < par.size(); ++i)
    for (int c = 0; c < 6; ++c)
      EXPECT_NEAR(par[i][std::size_t(c)], ser[i][std::size_t(c)], 1e-10 * scale)
          << "node " << i << " comp " << c;
}

TEST(Partitioned, EmptyPartsOnTinyCoarseLevels) {
  // Paper Sec. VI: at 2008 CPUs some coarsest-level partitions are empty.
  const auto m = small_wing();
  LevelOptions lo;
  lo.num_levels = 4;
  const auto levels = build_levels(m, lo);
  const index_t coarse_nodes = levels.back().num_nodes;
  const auto plan = build_partition_plan(levels, coarse_nodes + 4);
  EXPECT_GT(plan.levels.back().empty_parts, 0);
}

/// Heap bytes in use, arenas and mmapped chunks together.
std::size_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

TEST(Nsu3dFootprint, WingHeapPerFineNode) {
  // What the nsu3d-wing solver holds once its first cycle has sized every
  // kernel scratch: the levels, the multigrid state and the per-level
  // scratch (the mesh is the caller's). With each array stored once, 5+1
  // smoother blocks, and limiter scratch only on the level solved at
  // second order, that is about 2,000 B per fine node.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizers replace malloc";
#endif
  smp::set_global_threads(1);
  mesh::WingMeshSpec spec;
  spec.n_wrap = 64;
  spec.n_span = 12;
  spec.n_normal = 24;
  spec.wall_spacing = 1e-4;
  const mesh::UnstructuredMesh m = mesh::make_wing_mesh(spec);
  const std::size_t before = heap_in_use();
  euler::FlowConditions fc;
  fc.mach = 0.75;
  fc.reynolds = 3e6;
  Nsu3dOptions o;
  o.cycle = CycleType::W;
  Nsu3dSolver s(m, fc, o);
  s.run_cycle();
  const double per_node =
      double(heap_in_use() - before) / double(m.num_points());
  EXPECT_LE(per_node, 2050.0) << "heap bytes per fine node";

  // A level solved at first order never sizes the limiter's scratch.
  kernels::Physics phys;
  phys.freestream = fc.freestream();
  phys.mu_lam = fc.mach / fc.reynolds;
  phys.nut_inf = 3.0 * phys.mu_lam / phys.freestream.rho;
  kernels::Scratch k;
  std::vector<State> res;
  kernels::residual(s.level(1), phys, 1, s.solution(1), false, k, res);
  EXPECT_TRUE(k.ph.empty());
  EXPECT_TRUE(k.edq.empty());
}

}  // namespace
}  // namespace columbia::nsu3d
