// Multilevel k-way graph partitioner (METIS substitute).
//
// NSU3D feeds the adjacency graph of every multigrid level to METIS (paper
// Sec. III). This module implements the same multilevel scheme family:
//   1. coarsen by heavy-edge matching,
//   2. initial k-way partition by recursive region-growing bisection,
//   3. uncoarsen with boundary greedy (FM-style) refinement.
// Vertex weights support the line-contracted graphs (Fig. 6b) and Cart3D's
// cut-cell weighting; edge weights bias the matching toward strong couplings.
#pragma once

#include <vector>

#include "graph/csr.hpp"

namespace columbia::graph {

struct PartitionOptions {
  /// Allowed load imbalance: max part weight <= (1+imbalance)*ideal.
  real_t imbalance = 0.03;
  /// Refinement passes per uncoarsening level.
  int refine_passes = 4;
  /// Stop coarsening once the graph is this small (times nparts).
  index_t coarsen_to_per_part = 16;
  /// RNG seed for tie-breaking.
  std::uint64_t seed = 12345;
};

struct PartitionQuality {
  real_t edge_cut = 0;       // sum of weights of cut edges
  real_t imbalance = 0;      // max part weight / ideal - 1
  index_t nonempty_parts = 0;
};

/// Partitions g into nparts parts; returns one part id per vertex.
/// nparts >= 1; every id is in [0, nparts). Parts may be empty only when
/// the graph has fewer (weighted) vertices than parts — the paper itself
/// notes empty coarse-level partitions at 2008 CPUs (Sec. VI).
std::vector<index_t> partition(const Csr& g, index_t nparts,
                               const PartitionOptions& opt = {});

/// Edge cut / balance metrics of an existing assignment.
PartitionQuality evaluate_partition(const Csr& g,
                                    std::span<const index_t> part,
                                    index_t nparts);

}  // namespace columbia::graph
