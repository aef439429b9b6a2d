#include "graph/csr.hpp"

#include "support/assert.hpp"

namespace columbia::graph {

namespace {

Csr build(index_t num_vertices,
          std::span<const std::pair<index_t, index_t>> edges,
          std::span<const real_t> edge_weights) {
  COLUMBIA_REQUIRE(num_vertices >= 0);
  COLUMBIA_REQUIRE(edge_weights.empty() || edge_weights.size() == edges.size());

  std::vector<index_t> deg(std::size_t(num_vertices), 0);
  for (const auto& [a, b] : edges) {
    COLUMBIA_REQUIRE(a >= 0 && a < num_vertices && b >= 0 && b < num_vertices);
    if (a == b) continue;
    ++deg[std::size_t(a)];
    ++deg[std::size_t(b)];
  }

  std::vector<index_t> xadj(std::size_t(num_vertices) + 1, 0);
  for (index_t v = 0; v < num_vertices; ++v)
    xadj[std::size_t(v) + 1] = xadj[std::size_t(v)] + deg[std::size_t(v)];

  std::vector<index_t> adjncy(std::size_t(xadj.back()));
  std::vector<real_t> ew;
  if (!edge_weights.empty()) ew.resize(adjncy.size());

  std::vector<index_t> fill(xadj.begin(), xadj.end() - 1);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto [a, b] = edges[e];
    if (a == b) continue;
    adjncy[std::size_t(fill[std::size_t(a)])] = b;
    adjncy[std::size_t(fill[std::size_t(b)])] = a;
    if (!ew.empty()) {
      ew[std::size_t(fill[std::size_t(a)])] = edge_weights[e];
      ew[std::size_t(fill[std::size_t(b)])] = edge_weights[e];
    }
    ++fill[std::size_t(a)];
    ++fill[std::size_t(b)];
  }

  return Csr::from_csr_arrays(std::move(xadj), std::move(adjncy),
                              std::move(ew));
}

}  // namespace

Csr Csr::from_csr_arrays(std::vector<index_t> xadj, std::vector<index_t> adjncy,
                         std::vector<real_t> edge_weights) {
  COLUMBIA_REQUIRE(!xadj.empty());
  COLUMBIA_REQUIRE(std::size_t(xadj.back()) == adjncy.size());
  COLUMBIA_REQUIRE(edge_weights.empty() ||
                   edge_weights.size() == adjncy.size());
  Csr g;
  g.xadj_ = std::move(xadj);
  g.adjncy_ = std::move(adjncy);
  g.eweights_ = std::move(edge_weights);
  return g;
}

Csr Csr::from_edges(index_t num_vertices,
                    std::span<const std::pair<index_t, index_t>> edges) {
  return build(num_vertices, edges, {});
}

Csr Csr::from_weighted_edges(index_t num_vertices,
                             std::span<const std::pair<index_t, index_t>> edges,
                             std::span<const real_t> edge_weights) {
  return build(num_vertices, edges, edge_weights);
}

real_t Csr::total_vertex_weight() const {
  if (vweights_.empty()) return real_t(num_vertices());
  real_t s = 0;
  for (real_t w : vweights_) s += w;
  return s;
}

}  // namespace columbia::graph
