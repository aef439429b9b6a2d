// Median-dual control-volume metrics for the node-centered solver.
//
// NSU3D stores the unknowns at grid points and integrates over median dual
// control volumes (paper Fig. 2): the dual cell of a node is bounded by
// facets connecting edge midpoints, face centroids and element centroids.
// This module assembles, per mesh:
//   - the unique edge list with one accumulated directed dual-face area per
//     edge (flux coefficient of the edge-based residual loop),
//   - the dual volume of every node,
//   - the boundary closure: per node and boundary tag, the outward wall
//     area vector (lumped from the adjacent boundary faces).
// Discrete conservation holds by construction: for every interior node the
// signed sum of incident edge normals plus boundary normals vanishes.
#pragma once

#include <span>
#include <vector>

#include "mesh/unstructured.hpp"

namespace columbia::mesh {

struct DualMetrics {
  /// Unique mesh edges (a < b).
  std::vector<std::pair<index_t, index_t>> edges;
  /// Directed dual-face area of each edge, oriented from a toward b.
  std::vector<geom::Vec3> edge_normal;
  /// Median-dual volume of each node.
  std::vector<real_t> node_volume;
  /// Outward boundary area vector per node, one slot per BoundaryTag.
  std::vector<std::array<geom::Vec3, 3>> boundary_normal;
  /// Distance from each node to the nearest Wall-tagged node (approximate,
  /// graph propagation). Used by the turbulence model.
  std::vector<real_t> wall_distance;

  index_t num_edges() const { return index_t(edges.size()); }

  /// Edge coupling weight |n|/|dx| — large across the thin direction of
  /// stretched cells. nsu3d::build_levels extracts lines with the same
  /// weights, computed from the edge lengths it keeps.
  std::vector<real_t> edge_coupling(const UnstructuredMesh& m) const;

  /// Max anisotropy ratio over nodes: strongest/weakest incident coupling.
  real_t max_anisotropy(const UnstructuredMesh& m) const;
};

/// Assembles the metrics. Cost: each element's dual-face normals and
/// volume terms computed on the pool, block by block, while two threads
/// add the previous block's in element order (one numbering the edges
/// first-seen in a flat hash table and adding the normals, one adding the
/// node volumes); one pass over boundary faces; a Dijkstra over flat
/// per-node edge lists. The result does not depend on the pool size.
DualMetrics compute_dual_metrics(const UnstructuredMesh& m);

/// Conservation check: returns the max over nodes of |closure residual| =
/// |sum of signed edge normals + sum of boundary normals| (should be ~0).
real_t metric_closure_error(const UnstructuredMesh& m, const DualMetrics& dm);

}  // namespace columbia::mesh
