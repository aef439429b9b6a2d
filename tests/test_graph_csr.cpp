#include <gtest/gtest.h>

#include <algorithm>

#include "graph/coloring.hpp"
#include "graph/csr.hpp"

namespace columbia::graph {
namespace {

using Edge = std::pair<index_t, index_t>;

Csr path_graph(index_t n) {
  std::vector<Edge> edges;
  for (index_t i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return Csr::from_edges(n, edges);
}

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

TEST(Csr, BuildsFromEdges) {
  const Csr g = path_graph(4);
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_directed_edges(), 6);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(1), 2);
}

TEST(Csr, DropsSelfLoops) {
  std::vector<Edge> edges{{0, 0}, {0, 1}};
  const Csr g = Csr::from_edges(2, edges);
  EXPECT_EQ(g.num_directed_edges(), 2);
}

TEST(Csr, NeighborsSymmetric) {
  const Csr g = grid_graph(5, 5);
  for (index_t v = 0; v < g.num_vertices(); ++v)
    for (index_t u : g.neighbors(v)) {
      const auto nb = g.neighbors(u);
      EXPECT_NE(std::find(nb.begin(), nb.end(), v), nb.end());
    }
}

TEST(Csr, EdgeWeightsRoundTrip) {
  std::vector<Edge> edges{{0, 1}, {1, 2}};
  std::vector<real_t> w{2.5, 4.0};
  const Csr g = Csr::from_weighted_edges(3, edges, w);
  ASSERT_TRUE(g.has_edge_weights());
  // Vertex 1 sees both weights.
  const auto ws = g.edge_weights(1);
  real_t sum = 0;
  for (real_t x : ws) sum += x;
  EXPECT_DOUBLE_EQ(sum, 6.5);
}

TEST(Csr, VertexWeightDefaultsToOne) {
  const Csr g = path_graph(3);
  EXPECT_DOUBLE_EQ(g.vertex_weight(0), 1.0);
  EXPECT_DOUBLE_EQ(g.total_vertex_weight(), 3.0);
}

TEST(Csr, EmptyGraph) {
  const Csr g = Csr::from_edges(0, {});
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_directed_edges(), 0);
}

TEST(Coloring, EdgeColoringConflictFree) {
  std::vector<Edge> edges;
  auto id = [&](index_t i, index_t j) { return j * 6 + i; };
  for (index_t j = 0; j < 6; ++j)
    for (index_t i = 0; i < 6; ++i) {
      if (i + 1 < 6) edges.emplace_back(id(i, j), id(i + 1, j));
      if (j + 1 < 6) edges.emplace_back(id(i, j), id(i, j + 1));
    }
  const auto color = color_edges(36, edges);
  // No two same-colored edges may share a vertex.
  for (std::size_t a = 0; a < edges.size(); ++a)
    for (std::size_t b = a + 1; b < edges.size(); ++b) {
      if (color[a] != color[b]) continue;
      EXPECT_TRUE(edges[a].first != edges[b].first &&
                  edges[a].first != edges[b].second &&
                  edges[a].second != edges[b].first &&
                  edges[a].second != edges[b].second);
    }
  // Max degree 4 grid: first-fit stays within 2*Delta-1 = 7.
  EXPECT_LE(num_colors(color), 7);
}

TEST(Coloring, FirstFitPastSixtyFourColors) {
  // Two hubs of degree 80 joined by an edge, plus a ring through the
  // leaves: colors run past the 64 a vertex bit mask holds, and every edge
  // must still get the lowest color neither endpoint has used, as a plain
  // first-fit over per-vertex color sets gives it.
  std::vector<Edge> edges;
  const index_t leaves = 80, n = 2 + 2 * leaves;
  for (index_t k = 0; k < leaves; ++k) edges.emplace_back(0, 2 + k);
  edges.emplace_back(0, 1);
  for (index_t k = 0; k < leaves; ++k) edges.emplace_back(1, 2 + leaves + k);
  for (index_t k = 0; k + 1 < 2 * leaves; ++k)
    edges.emplace_back(2 + k, 2 + k + 1);
  for (index_t k = 0; k < leaves; ++k) edges.emplace_back(2 + k, 2 + leaves + k);

  std::vector<std::vector<bool>> used(static_cast<std::size_t>(n));
  std::vector<index_t> want;
  for (const auto& [a, b] : edges) {
    auto& ua = used[std::size_t(a)];
    auto& ub = used[std::size_t(b)];
    std::size_t c = 0;
    while ((c < ua.size() && ua[c]) || (c < ub.size() && ub[c])) ++c;
    ua.resize(std::max(ua.size(), c + 1));
    ub.resize(std::max(ub.size(), c + 1));
    ua[c] = ub[c] = true;
    want.push_back(index_t(c));
  }
  EXPECT_EQ(color_edges(n, edges), want);
  EXPECT_GT(num_colors(want), 64);
}

}  // namespace
}  // namespace columbia::graph
