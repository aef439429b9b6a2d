// Implicit-line extraction and line-contracted partitioning graphs.
//
// In highly stretched boundary-layer regions NSU3D groups the edges that
// connect closely coupled points (the wall-normal direction) into a set of
// non-intersecting lines and solves implicitly along each line (paper
// Sec. III, Fig. 5). For partitioning, each line is contracted to a single
// weighted vertex so METIS never breaks a line (Fig. 6b). For vector
// processors, lines are sorted by length and grouped into batches of 64.
#pragma once

#include <vector>

#include "graph/csr.hpp"

namespace columbia::graph {

/// A decomposition of all vertices into vertex-disjoint simple paths.
/// Isotropic vertices appear as singleton lines ("the line structure
/// reduces to a single point" — paper Sec. III).
struct LineSet {
  std::vector<std::vector<index_t>> lines;

  index_t num_lines() const { return index_t(lines.size()); }
  index_t longest() const;
  /// Number of vertices that sit in lines of length >= 2.
  index_t vertices_in_lines() const;
};

struct LineOptions {
  /// An edge participates in a line only when its coupling weight exceeds
  /// `anisotropy_threshold` times the mean weight at both endpoints.
  real_t anisotropy_threshold = 2.0;
};

/// Extracts lines by following the strongest mutually-agreeing edges.
/// `g` must carry edge weights encoding coupling strength (for a mesh,
/// inverse edge length or face-area/distance ratio).
LineSet extract_lines(const Csr& g, const LineOptions& opt = {});

struct ContractedGraph {
  /// One vertex per line; vertex weight = line length, edge weights =
  /// summed inter-line couplings (paper Fig. 6b).
  Csr graph;
  /// vertex_to_line[v] = index of the line containing v.
  std::vector<index_t> vertex_to_line;
};

/// Contracts each line of `ls` to a single weighted vertex of a new graph.
ContractedGraph contract_lines(const Csr& g, const LineSet& ls);

/// Expands a partition of the contracted graph back to the vertices;
/// guarantees every line lands wholly inside one part.
std::vector<index_t> expand_line_partition(
    const ContractedGraph& cg, std::span<const index_t> line_part);

}  // namespace columbia::graph
