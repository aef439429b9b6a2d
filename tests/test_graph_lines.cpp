#include <gtest/gtest.h>

#include "graph/lines.hpp"
#include "graph/partition.hpp"

namespace columbia::graph {
namespace {

using Edge = std::pair<index_t, index_t>;

/// Anisotropic grid: strong vertical coupling (boundary-layer normal
/// direction), weak horizontal coupling — the Fig. 5 situation.
Csr stretched_grid(index_t nx, index_t ny, real_t strong = 100.0,
                   real_t weak = 1.0) {
  std::vector<Edge> edges;
  std::vector<real_t> w;
  auto id = [&](index_t i, index_t j) { return j * nx + i; };
  for (index_t j = 0; j < ny; ++j)
    for (index_t i = 0; i < nx; ++i) {
      if (i + 1 < nx) {
        edges.emplace_back(id(i, j), id(i + 1, j));
        w.push_back(weak);
      }
      if (j + 1 < ny) {
        edges.emplace_back(id(i, j), id(i, j + 1));
        w.push_back(strong);
      }
    }
  return Csr::from_weighted_edges(nx * ny, edges, w);
}

TEST(Lines, EveryVertexInExactlyOneLine) {
  const Csr g = stretched_grid(8, 10);
  const LineSet ls = extract_lines(g);
  std::vector<int> seen(80, 0);
  for (const auto& line : ls.lines)
    for (index_t v : line) ++seen[std::size_t(v)];
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST(Lines, FollowsStrongDirection) {
  const Csr g = stretched_grid(8, 10);
  const LineSet ls = extract_lines(g);
  // Lines should run vertically: full columns of length 10.
  EXPECT_EQ(ls.longest(), 10);
  index_t full_columns = 0;
  for (const auto& line : ls.lines)
    if (index_t(line.size()) == 10) ++full_columns;
  EXPECT_EQ(full_columns, 8);
}

TEST(Lines, LinesArePaths) {
  const Csr g = stretched_grid(6, 12);
  const LineSet ls = extract_lines(g);
  for (const auto& line : ls.lines) {
    for (std::size_t k = 0; k + 1 < line.size(); ++k) {
      // Consecutive line vertices are graph neighbors.
      const auto nb = g.neighbors(line[k]);
      EXPECT_NE(std::find(nb.begin(), nb.end(), line[k + 1]), nb.end());
    }
  }
}

TEST(Lines, IsotropicMeshGivesSingletons) {
  const Csr g = stretched_grid(10, 10, 1.0, 1.0);  // no anisotropy
  const LineSet ls = extract_lines(g);
  EXPECT_EQ(ls.longest(), 1);
  EXPECT_EQ(ls.vertices_in_lines(), 0);
}

TEST(Lines, UnweightedGraphGivesSingletons) {
  std::vector<Edge> edges{{0, 1}, {1, 2}};
  const Csr g = Csr::from_edges(3, edges);
  const LineSet ls = extract_lines(g);
  EXPECT_EQ(ls.longest(), 1);
}

TEST(Lines, ThresholdControlsExtraction) {
  const Csr g = stretched_grid(6, 8, 3.0, 1.0);
  LineOptions strict;
  strict.anisotropy_threshold = 5.0;  // 3:1 coupling no longer qualifies
  EXPECT_EQ(extract_lines(g, strict).longest(), 1);
  LineOptions loose;
  loose.anisotropy_threshold = 1.2;
  EXPECT_GT(extract_lines(g, loose).longest(), 1);
}

TEST(ContractLines, VertexWeightsEqualLineLengths) {
  const Csr g = stretched_grid(5, 9);
  const LineSet ls = extract_lines(g);
  const ContractedGraph cg = contract_lines(g, ls);
  EXPECT_EQ(cg.graph.num_vertices(), ls.num_lines());
  EXPECT_DOUBLE_EQ(cg.graph.total_vertex_weight(), 45.0);
}

TEST(ContractLines, PartitionNeverBreaksALine) {
  const Csr g = stretched_grid(16, 12);
  const LineSet ls = extract_lines(g);
  const ContractedGraph cg = contract_lines(g, ls);
  const auto line_part = partition(cg.graph, 4);
  const auto part = expand_line_partition(cg, line_part);
  for (const auto& line : ls.lines) {
    for (index_t v : line)
      EXPECT_EQ(part[std::size_t(v)], part[std::size_t(line[0])]);
  }
}

}  // namespace
}  // namespace columbia::graph
