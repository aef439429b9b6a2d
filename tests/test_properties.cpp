// Cross-module property tests: parameterized sweeps over configurations,
// checking the invariants the solvers depend on.
#include <gtest/gtest.h>

#include "euler/flux.hpp"
#include "graph/partition.hpp"
#include "mesh/builders.hpp"
#include "mesh/dual_metrics.hpp"
#include "oracles/flux_jacobian.hpp"
#include "support/random.hpp"

namespace columbia {
namespace {

// ---------------------------------------------------------------------
// Flux Jacobian vs finite differences: the implicit smoothers linearize
// the residual with the lane form of euler::flux_jacobian, which
// Nsu3dSmoother.* pins to this oracle (tests/oracles) bit for bit; a wrong
// entry silently degrades convergence, so check every entry against
// central differences.
class JacobianSweep : public ::testing::TestWithParam<int> {};

TEST_P(JacobianSweep, MatchesFiniteDifferences) {
  Xoshiro256 rng{std::uint64_t(GetParam())};
  const euler::Prim w{rng.uniform(0.3, 2.0),
                      {rng.uniform(-1, 1), rng.uniform(-1, 1),
                       rng.uniform(-1, 1)},
                      rng.uniform(0.3, 2.0)};
  geom::Vec3 n{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
  n = normalized(n);

  const auto a = euler::flux_jacobian(w, n);
  const euler::Cons u0 = euler::to_conservative(w);
  const real_t eps = 1e-6;
  for (int j = 0; j < 5; ++j) {
    euler::Cons up = u0, um = u0;
    const real_t h = eps * std::max<real_t>(1.0, std::abs(u0[std::size_t(j)]));
    up[std::size_t(j)] += h;
    um[std::size_t(j)] -= h;
    const euler::Cons fp = euler::physical_flux(euler::to_primitive(up), n);
    const euler::Cons fm = euler::physical_flux(euler::to_primitive(um), n);
    for (int i = 0; i < 5; ++i) {
      const real_t fd = (fp[std::size_t(i)] - fm[std::size_t(i)]) / (2 * h);
      EXPECT_NEAR(a(i, j), fd, 2e-5 * std::max<real_t>(1.0, std::abs(fd)))
          << "entry (" << i << "," << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomStates, JacobianSweep,
                         ::testing::Range(1, 13));

// ---------------------------------------------------------------------
// Jacobian linearity in the normal: A(w, s*n) = s*A(w, n). The implicit
// assembly exploits this by passing scaled dual-face normals directly.
TEST(Jacobian, LinearInNormal) {
  const euler::Prim w{1.2, {0.4, -0.2, 0.7}, 0.9};
  const geom::Vec3 n{0.3, -0.5, 0.81};
  const auto a1 = euler::flux_jacobian(w, n);
  const auto a3 = euler::flux_jacobian(w, 3.0 * n);
  for (int i = 0; i < 5; ++i)
    for (int j = 0; j < 5; ++j)
      EXPECT_NEAR(a3(i, j), 3.0 * a1(i, j), 1e-12);
}

// ---------------------------------------------------------------------
// Dual-metric closure must hold for every wing-mesh configuration, not
// just the one the solver tests use.
struct WingCase {
  int n_wrap, n_span, n_normal;
  real_t wall_spacing, hex_fraction;
};

class WingMeshSweep : public ::testing::TestWithParam<WingCase> {};

TEST_P(WingMeshSweep, MetricsCloseAndVolumesPositive) {
  const WingCase c = GetParam();
  mesh::WingMeshSpec spec;
  spec.n_wrap = c.n_wrap;
  spec.n_span = c.n_span;
  spec.n_normal = c.n_normal;
  spec.wall_spacing = c.wall_spacing;
  spec.hex_layer_fraction = c.hex_fraction;
  const auto m = mesh::make_wing_mesh(spec);
  for (index_t e = 0; e < m.num_elements(); ++e)
    ASSERT_GT(m.element_volume(e), 0.0);
  const auto dm = mesh::compute_dual_metrics(m);
  EXPECT_LT(mesh::metric_closure_error(m, dm), 1e-9);
  real_t sum = 0;
  for (real_t v : dm.node_volume) {
    ASSERT_GT(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, m.total_volume(), 1e-7 * std::abs(sum));
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, WingMeshSweep,
    ::testing::Values(WingCase{16, 2, 6, 1e-3, 0.5},
                      WingCase{24, 4, 10, 1e-4, 0.5},
                      WingCase{32, 3, 8, 1e-2, 0.25},
                      WingCase{16, 2, 8, 1e-4, 1.0},    // all hex
                      WingCase{20, 2, 8, 1e-3, 0.12})); // thin hex block

// ---------------------------------------------------------------------
// Partitioner sweep: valid ids, bounded imbalance, sane cut growth across
// part counts on the same graph.
class PartitionSweep : public ::testing::TestWithParam<index_t> {};

TEST_P(PartitionSweep, BalancedValidPartitions) {
  const index_t nparts = GetParam();
  std::vector<std::pair<index_t, index_t>> edges;
  const index_t n = 18;
  auto id = [&](index_t i, index_t j, index_t k) {
    return (k * n + j) * n + i;
  };
  for (index_t k = 0; k < n; ++k)
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < n; ++i) {
        if (i + 1 < n) edges.emplace_back(id(i, j, k), id(i + 1, j, k));
        if (j + 1 < n) edges.emplace_back(id(i, j, k), id(i, j + 1, k));
        if (k + 1 < n) edges.emplace_back(id(i, j, k), id(i, j, k + 1));
      }
  const graph::Csr g = graph::Csr::from_edges(n * n * n, edges);
  const auto part = graph::partition(g, nparts);
  const auto q = graph::evaluate_partition(g, part, nparts);
  EXPECT_EQ(q.nonempty_parts, nparts);
  EXPECT_LT(q.imbalance, 0.35);
  // Cut should scale like the total partition surface ~ n^2 * nparts^(1/3).
  const real_t surface_scale =
      real_t(n) * real_t(n) * std::cbrt(real_t(nparts));
  EXPECT_LT(q.edge_cut, 5.0 * surface_scale);
}

INSTANTIATE_TEST_SUITE_P(PartCounts, PartitionSweep,
                         ::testing::Values(2, 3, 5, 8, 13, 21, 32));

// ---------------------------------------------------------------------
// Numerical flux positivity-adjacent property: for two states with equal
// pressure and velocity, the interface mass flux is bounded by the
// physical fluxes on either side (no scheme invents mass from nowhere).
class FluxBoundSweep : public ::testing::TestWithParam<euler::FluxScheme> {};

TEST_P(FluxBoundSweep, MassFluxBetweenUpwindBounds) {
  Xoshiro256 rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const geom::Vec3 vel{rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                         rng.uniform(-0.5, 0.5)};
    const real_t p = rng.uniform(0.5, 2.0);
    const euler::Prim l{rng.uniform(0.5, 2.0), vel, p};
    const euler::Prim r{rng.uniform(0.5, 2.0), vel, p};
    const geom::Vec3 nrm{1, 0, 0};
    const auto f = euler::numerical_flux(l, r, nrm, GetParam());
    const real_t fl = euler::physical_flux(l, nrm)[0];
    const real_t fr = euler::physical_flux(r, nrm)[0];
    // Dissipation is bounded by 0.5 * max wave speed * |density jump|
    // (the Rusanov bound; Roe/van Leer sit strictly inside it).
    const real_t margin = 0.5 *
                              std::max(euler::spectral_radius(l, nrm),
                                       euler::spectral_radius(r, nrm)) *
                              std::abs(r.rho - l.rho) +
                          1e-12;
    EXPECT_GT(f[0], std::min(fl, fr) - margin);
    EXPECT_LT(f[0], std::max(fl, fr) + margin);
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, FluxBoundSweep,
                         ::testing::Values(euler::FluxScheme::Roe,
                                           euler::FluxScheme::VanLeer,
                                           euler::FluxScheme::Rusanov));

}  // namespace
}  // namespace columbia
