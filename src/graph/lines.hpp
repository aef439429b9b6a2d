// Implicit-line extraction and line-contracted partitioning graphs.
//
// In highly stretched boundary-layer regions NSU3D groups the edges that
// connect closely coupled points (the wall-normal direction) into a set of
// non-intersecting lines and solves implicitly along each line (paper
// Sec. III, Fig. 5). For partitioning, each line is contracted to a single
// weighted vertex so METIS never breaks a line (Fig. 6b). The solver sorts
// its lines by length for its batched line solves (nsu3d::Level).
#pragma once

#include <vector>

#include "graph/csr.hpp"
#include "support/flat_lists.hpp"

namespace columbia::graph {

/// A decomposition of all vertices into vertex-disjoint simple paths.
/// Isotropic vertices appear as singleton lines ("the line structure
/// reduces to a single point" — paper Sec. III).
struct LineSet {
  /// Line i is lines[i], its vertices in path order; lines are numbered in
  /// extraction order.
  FlatLists<index_t> lines;

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
