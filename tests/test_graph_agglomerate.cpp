#include <gtest/gtest.h>

#include "graph/agglomerate.hpp"
#include "graph/partition.hpp"

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

TEST(Agglomerate, CoversAllVertices) {
  const Csr g = grid_graph(10, 10);
  const auto agg = agglomerate(g);
  EXPECT_EQ(agg.fine_to_coarse.size(), 100u);
  for (index_t c : agg.fine_to_coarse) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, agg.coarse.num_vertices());
  }
}

TEST(Agglomerate, CoarseningRatioMatchesPaperHierarchy) {
  // Distance-2 agglomeration: the paper's NSU3D hierarchy shrinks by ~8x
  // per level (72M -> 9M -> 1M points, Sec. VI). A 2D grid's distance-2
  // neighborhood holds up to 13 vertices; greedy lands in ~[4, 13].
  const Csr g = grid_graph(30, 30);
  const auto agg = agglomerate(g);
  EXPECT_GT(agg.coarsening_ratio(), 4.0);
  EXPECT_LT(agg.coarsening_ratio(), 13.5);
}

TEST(Agglomerate, RecursiveHierarchyShrinks) {
  Csr g = grid_graph(40, 40);
  std::vector<index_t> sizes{g.num_vertices()};
  for (int l = 0; l < 4; ++l) {
    const auto agg = agglomerate(g);
    sizes.push_back(agg.coarse.num_vertices());
    g = agg.coarse;
  }
  for (std::size_t i = 1; i < sizes.size(); ++i)
    EXPECT_LT(sizes[i], sizes[i - 1]);
  EXPECT_LT(sizes.back(), 40);
}

TEST(Agglomerate, AgglomeratesAreConnectedSeedStars) {
  const Csr g = grid_graph(12, 12);
  const auto agg = agglomerate(g);
  // Every agglomerate has >= 1 vertex; coarse vertex weights sum to n.
  EXPECT_DOUBLE_EQ(agg.coarse.total_vertex_weight(), 144.0);
}

TEST(Agglomerate, PriorityOrdersSeeds) {
  const Csr g = grid_graph(10, 10);
  std::vector<real_t> priority(100, 0.0);
  priority[55] = 10.0;  // force vertex 55 to seed first
  const auto agg = agglomerate(g, priority);
  const index_t c = agg.fine_to_coarse[55];
  // All of 55's neighbors joined its agglomerate.
  for (index_t u : g.neighbors(55)) EXPECT_EQ(agg.fine_to_coarse[std::size_t(u)], c);
}

TEST(Agglomerate, MapIsTheSweepWithoutTheCoarseGraph) {
  const Csr g = grid_graph(17, 13);
  std::vector<real_t> priority(std::size_t(g.num_vertices()));
  for (std::size_t v = 0; v < priority.size(); ++v)
    priority[v] = real_t((v * 7) % 11);
  for (const bool prioritized : {false, true}) {
    const std::span<const real_t> p =
        prioritized ? std::span<const real_t>(priority) : std::span<const real_t>();
    const auto agg = agglomerate(g, p);
    const auto map = agglomerate_map(g, p);
    EXPECT_EQ(map.fine_to_coarse, agg.fine_to_coarse);
    EXPECT_EQ(map.num_coarse, agg.coarse.num_vertices());
  }
}

TEST(MatchPartitions, RelabelsForOverlap) {
  const Csr g = grid_graph(16, 16);
  const auto fine_part = partition(g, 4);
  const auto agg = agglomerate(g);
  auto coarse_part = partition(agg.coarse, 4);

  const real_t before =
      partition_overlap(fine_part, agg.fine_to_coarse, coarse_part);
  const auto matched =
      match_partitions(fine_part, agg.fine_to_coarse, coarse_part, 4);
  const real_t after =
      partition_overlap(fine_part, agg.fine_to_coarse, matched);
  EXPECT_GE(after, before - 1e-12);
  EXPECT_GT(after, 0.25);  // better than random labeling
}

TEST(MatchPartitions, PermutationOfLabels) {
  const Csr g = grid_graph(8, 8);
  const auto fine_part = partition(g, 3);
  const auto agg = agglomerate(g);
  const auto coarse_part = partition(agg.coarse, 3);
  const auto matched =
      match_partitions(fine_part, agg.fine_to_coarse, coarse_part, 3);
  for (index_t p : matched) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 3);
  }
  // Same multiset of part sizes (labels permuted only).
  std::vector<int> a(3, 0), b(3, 0);
  for (index_t p : coarse_part) ++a[std::size_t(p)];
  for (index_t p : matched) ++b[std::size_t(p)];
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(PartitionOverlap, PerfectNestingIsOne) {
  std::vector<index_t> fine_part{0, 0, 1, 1};
  std::vector<index_t> f2c{0, 0, 1, 1};
  std::vector<index_t> coarse_part{0, 1};
  EXPECT_DOUBLE_EQ(partition_overlap(fine_part, f2c, coarse_part), 1.0);
}

}  // namespace
}  // namespace columbia::graph
