#include <gtest/gtest.h>

#include "graph/partition.hpp"
#include "support/random.hpp"

namespace columbia::graph {
namespace {

using Edge = std::pair<index_t, index_t>;

Csr grid_graph(index_t nx, index_t ny) {
  std::vector<Edge> edges;
  auto id = [&](index_t i, index_t j) { return j * nx + i; };
  for (index_t j = 0; j < ny; ++j)
    for (index_t i = 0; i < nx; ++i) {
      if (i + 1 < nx) edges.emplace_back(id(i, j), id(i + 1, j));
      if (j + 1 < ny) edges.emplace_back(id(i, j), id(i, j + 1));
    }
  return Csr::from_edges(nx * ny, edges);
}

Csr grid3d(index_t n) {
  std::vector<Edge> edges;
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
  return Csr::from_edges(n * n * n, edges);
}

TEST(Partition, SinglePartIsTrivial) {
  const Csr g = grid_graph(5, 5);
  const auto part = partition(g, 1);
  for (index_t p : part) EXPECT_EQ(p, 0);
}

TEST(Partition, AllIdsInRange) {
  const Csr g = grid_graph(16, 16);
  for (index_t k : {2, 3, 4, 7, 8}) {
    const auto part = partition(g, k);
    for (index_t p : part) {
      EXPECT_GE(p, 0);
      EXPECT_LT(p, k);
    }
  }
}

TEST(Partition, BalanceWithinTolerance) {
  const Csr g = grid_graph(32, 32);
  PartitionOptions opt;
  opt.imbalance = 0.05;
  const auto part = partition(g, 8, opt);
  const auto q = evaluate_partition(g, part, 8);
  EXPECT_EQ(q.nonempty_parts, 8);
  EXPECT_LT(q.imbalance, 0.20);  // refinement tolerance, not a hard bound
}

TEST(Partition, CutQualityOnGrid) {
  // 32x32 grid, 4 parts: ideal quadrant cut = 64 edges. Accept within 3x.
  const Csr g = grid_graph(32, 32);
  const auto part = partition(g, 4);
  const auto q = evaluate_partition(g, part, 4);
  EXPECT_LT(q.edge_cut, 3 * 64.0);
}

TEST(Partition, Cut3DGridScalesWithSurface) {
  const Csr g = grid3d(12);
  const auto part = partition(g, 8);
  const auto q = evaluate_partition(g, part, 8);
  // Ideal octant cut: 3 internal planes of 144 faces = 432. Allow 3x.
  EXPECT_LT(q.edge_cut, 3 * 432.0);
  EXPECT_EQ(q.nonempty_parts, 8);
}

TEST(Partition, MoreVerticesThanPartsDegenerate) {
  const Csr g = grid_graph(2, 2);  // 4 vertices
  const auto part = partition(g, 8);
  // One vertex per part, remaining parts empty (paper Sec. VI observes
  // empty coarse-level partitions).
  const auto q = evaluate_partition(g, part, 8);
  EXPECT_EQ(q.nonempty_parts, 4);
}

TEST(Partition, RespectsVertexWeights) {
  // Star of heavy vs light vertices: weighted balance should spread heavy
  // vertices across parts.
  Csr g = grid_graph(8, 8);
  std::vector<real_t> w(64, 1.0);
  for (int i = 0; i < 8; ++i) w[std::size_t(i)] = 20.0;  // heavy first row
  g.set_vertex_weights(std::move(w));
  const auto part = partition(g, 4);
  const auto q = evaluate_partition(g, part, 4);
  EXPECT_LT(q.imbalance, 0.5);
}

TEST(Partition, DeterministicWithSeed) {
  const Csr g = grid_graph(20, 20);
  PartitionOptions opt;
  opt.seed = 77;
  const auto a = partition(g, 4, opt);
  const auto b = partition(g, 4, opt);
  EXPECT_EQ(a, b);
}

TEST(Partition, EdgeWeightsSteerCut) {
  // Two 8x8 blocks joined by heavy edges: a 2-way partition should cut the
  // light internal edges rather than the heavy bridge.
  std::vector<Edge> edges;
  std::vector<real_t> w;
  auto id = [&](index_t i, index_t j) { return j * 16 + i; };
  for (index_t j = 0; j < 8; ++j)
    for (index_t i = 0; i < 16; ++i) {
      if (i + 1 < 16) {
        edges.emplace_back(id(i, j), id(i + 1, j));
        w.push_back(i == 7 ? 0.01 : 1.0);  // weak seam down the middle
      }
      if (j + 1 < 8) {
        edges.emplace_back(id(i, j), id(i, j + 1));
        w.push_back(1.0);
      }
    }
  const Csr g = Csr::from_weighted_edges(128, edges, w);
  const auto part = partition(g, 2);
  const auto q = evaluate_partition(g, part, 2);
  // Cutting the weak seam costs 8 * 0.01; anything near that is a win.
  EXPECT_LT(q.edge_cut, 4.0);
}

TEST(EvaluatePartition, CountsCutEdges) {
  const Csr g = grid_graph(4, 1);  // path of 4
  std::vector<index_t> part{0, 0, 1, 1};
  const auto q = evaluate_partition(g, part, 2);
  EXPECT_DOUBLE_EQ(q.edge_cut, 1.0);
  EXPECT_EQ(q.nonempty_parts, 2);
}

}  // namespace
}  // namespace columbia::graph
