#include <gtest/gtest.h>

#include "mesh/builders.hpp"
#include "nsu3d/solver.hpp"
#include "support/random.hpp"

namespace columbia::mesh {
namespace {

/// Scrambles the node numbering (grids from real generators arrive in
/// whatever order the generator emitted).
void shuffle_nodes(UnstructuredMesh& m, std::uint64_t seed) {
  const index_t n = m.num_points();
  std::vector<index_t> perm(std::size_t(n), 0);
  for (index_t i = 0; i < n; ++i) perm[std::size_t(i)] = i;
  Xoshiro256 rng{seed};
  for (index_t i = n - 1; i > 0; --i)
    std::swap(perm[std::size_t(i)],
              perm[std::size_t(rng.below(std::uint64_t(i) + 1))]);
  std::vector<index_t> inverse(std::size_t(n), 0);
  for (index_t i = 0; i < n; ++i) inverse[std::size_t(perm[std::size_t(i)])] = i;
  std::vector<geom::Vec3> points(std::size_t(n), geom::Vec3{});
  for (index_t i = 0; i < n; ++i)
    points[std::size_t(i)] = m.points[std::size_t(perm[std::size_t(i)])];
  m.points = std::move(points);
  for (Element& e : m.elements)
    for (int k = 0; k < e.num_nodes(); ++k)
      e.nodes[std::size_t(k)] = inverse[std::size_t(e.nodes[std::size_t(k)])];
  for (BoundaryFace& f : m.boundary)
    for (int k = 0; k < f.n; ++k)
      f.nodes[std::size_t(k)] = inverse[std::size_t(f.nodes[std::size_t(k)])];
}

TEST(Reorder, SolverConvergesIdenticallyAfterPermutation) {
  // The edge-based solver's convergence must not depend on node numbering
  // (summation order shifts at machine precision only).
  WingMeshSpec spec;
  spec.n_wrap = 16;
  spec.n_span = 2;
  spec.n_normal = 8;
  auto m1 = make_wing_mesh(spec);
  auto m2 = m1;
  shuffle_nodes(m2, 7);

  euler::FlowConditions fc;
  fc.mach = 0.75;
  nsu3d::Nsu3dOptions opt;
  opt.mg_levels = 2;
  nsu3d::Nsu3dSolver s1(m1, fc, opt);
  nsu3d::Nsu3dSolver s2(m2, fc, opt);
  const auto h1 = s1.solve(10, 10);
  const auto h2 = s2.solve(10, 10);
  ASSERT_EQ(h1.size(), h2.size());
  // Same initial residual (bit-reorderings only) and similar trajectory.
  EXPECT_NEAR(h1.front(), h2.front(), 1e-8 * h1.front());
  EXPECT_NEAR(std::log10(h1.back()), std::log10(h2.back()), 0.5);
}

}  // namespace
}  // namespace columbia::mesh
