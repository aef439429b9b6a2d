// Agglomeration coarsening for the multigrid hierarchy.
//
// The agglomeration multigrid of NSU3D groups neighboring fine-grid control
// volumes around a seed point into larger coarse control volumes (paper
// Fig. 2), recursively, producing the full sequence of coarse levels
// (Fig. 3). Each coarse level is itself a graph, so the procedure nests.
#pragma once

#include <vector>

#include "graph/csr.hpp"

namespace columbia::graph {

struct Agglomeration {
  /// Coarse-level adjacency: vertices are agglomerated control volumes,
  /// edges connect agglomerates that share a fine edge; edge weight is the
  /// summed fine edge weight across the shared boundary.
  Csr coarse;
  /// fine_to_coarse[v] = agglomerate containing fine vertex v.
  std::vector<index_t> fine_to_coarse;

  real_t coarsening_ratio() const {
    return coarse.num_vertices() == 0
               ? 0.0
               : real_t(fine_to_coarse.size()) / real_t(coarse.num_vertices());
  }
};

/// The vertex grouping of one agglomeration sweep, without the coarse graph.
struct AgglomerateMap {
  /// fine_to_coarse[v] = agglomerate containing fine vertex v, numbered
  /// 0 .. num_coarse - 1.
  std::vector<index_t> fine_to_coarse;
  index_t num_coarse = 0;
};

/// One agglomeration sweep. Seeds are visited in a boundary-first order (the
/// `priority` span, higher first; pass {} for natural order); each unclaimed
/// seed claims itself plus its unclaimed distance-2 neighborhood, and
/// singleton agglomerates are absorbed into a neighbor.
AgglomerateMap agglomerate_map(const Csr& g,
                               std::span<const real_t> priority = {});

/// The same sweep plus the coarse graph over the agglomerates. Callers that
/// build their own coarse edges (the NSU3D levels sum dual-face normals
/// instead of edge weights) take agglomerate_map alone.
Agglomeration agglomerate(const Csr& g, std::span<const real_t> priority = {});

/// Relabels coarse-level partition ids so each coarse part maximally
/// overlaps the fine part with the same id (paper Sec. III: coarse and fine
/// grid partitions "matched up together based on the degree of overlap...
/// using a non-optimal greedy-type algorithm"). Returns the relabeled
/// coarse partition vector.
std::vector<index_t> match_partitions(std::span<const index_t> fine_part,
                                      std::span<const index_t> fine_to_coarse,
                                      std::span<const index_t> coarse_part,
                                      index_t nparts);

/// Fraction of fine vertices whose coarse agglomerate lives on the same
/// partition (1.0 = perfectly nested partitions; the paper's approach is
/// deliberately non-nested).
real_t partition_overlap(std::span<const index_t> fine_part,
                         std::span<const index_t> fine_to_coarse,
                         std::span<const index_t> coarse_part);

}  // namespace columbia::graph
