// Compressed-sparse-row adjacency structure.
//
// Every graph algorithm in the library (partitioning, agglomeration,
// coloring, line extraction) operates on this one structure. Vertex and
// edge weights are optional; an empty weight vector means "all ones".
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "support/types.hpp"

namespace columbia::graph {

/// Undirected graph in CSR form. Each undirected edge is stored twice
/// (once per endpoint). Weights, when present, are parallel arrays.
class Csr {
 public:
  Csr() = default;

  /// Builds from an undirected edge list over `num_vertices` vertices.
  /// Self-loops are dropped; duplicate edges are kept (callers dedupe).
  static Csr from_edges(index_t num_vertices,
                        std::span<const std::pair<index_t, index_t>> edges);

  /// Same, with one weight per input edge (applied to both directions).
  static Csr from_weighted_edges(
      index_t num_vertices,
      std::span<const std::pair<index_t, index_t>> edges,
      std::span<const real_t> edge_weights);

  index_t num_vertices() const { return index_t(xadj_.size()) - 1; }
  index_t num_directed_edges() const { return index_t(adjncy_.size()); }

  /// Neighbors of vertex v.
  std::span<const index_t> neighbors(index_t v) const {
    return {adjncy_.data() + xadj_[std::size_t(v)],
            adjncy_.data() + xadj_[std::size_t(v) + 1]};
  }

  /// Weights of the edges leaving v (parallel to neighbors(v)).
  /// Empty when the graph is unweighted.
  std::span<const real_t> edge_weights(index_t v) const {
    if (eweights_.empty()) return {};
    return {eweights_.data() + xadj_[std::size_t(v)],
            eweights_.data() + xadj_[std::size_t(v) + 1]};
  }

  index_t degree(index_t v) const {
    return xadj_[std::size_t(v) + 1] - xadj_[std::size_t(v)];
  }

  bool has_edge_weights() const { return !eweights_.empty(); }

  real_t vertex_weight(index_t v) const {
    return vweights_.empty() ? 1.0 : vweights_[std::size_t(v)];
  }
  void set_vertex_weights(std::vector<real_t> w) { vweights_ = std::move(w); }

  real_t total_vertex_weight() const;

  const std::vector<index_t>& xadj() const { return xadj_; }
  const std::vector<index_t>& adjncy() const { return adjncy_; }

  /// Assembles from already-built CSR arrays (used by graph algorithms that
  /// construct coarse graphs directly).
  static Csr from_csr_arrays(std::vector<index_t> xadj,
                             std::vector<index_t> adjncy,
                             std::vector<real_t> edge_weights = {});

 private:
  std::vector<index_t> xadj_{0};
  std::vector<index_t> adjncy_;
  std::vector<real_t> eweights_;  // per directed edge, optional
  std::vector<real_t> vweights_;  // per vertex, optional
};

}  // namespace columbia::graph
