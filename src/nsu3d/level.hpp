// Multigrid level data for the agglomeration hierarchy.
//
// Level 0 carries the true median-dual metrics of the unstructured mesh;
// coarser levels are built by recursive agglomeration (paper Figs. 2-3):
// coarse control volumes are unions of fine ones, coarse edge normals are
// the accumulated fine dual-face areas across agglomerate boundaries, and
// boundary closures sum. The edge-based residual loop therefore runs
// unchanged on every level.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "geom/vec3.hpp"
#include "graph/lines.hpp"
#include "mesh/dual_metrics.hpp"
#include "mesh/unstructured.hpp"
#include "support/flat_lists.hpp"
#include "support/types.hpp"

namespace columbia::nsu3d {

struct Level {
  index_t num_nodes = 0;
  /// Edge endpoints (a < b) in storage order: the one endpoint array the
  /// edge sweeps, the partitioners and the multigrid tables all read.
  std::vector<std::pair<index_t, index_t>> edges;
  std::vector<real_t> edge_length;                 // |x_b - x_a| proxy

  /// Color-major edge layout (paper Sec. III: the edge loop is colored so
  /// accumulate-to-points vectorizes/threads): color c occupies the
  /// contiguous span [color_offsets[c], color_offsets[c+1]) and no two
  /// edges within a span share a node, so a scatter over one span is
  /// race-free.
  std::vector<std::size_t> color_offsets;

  /// Per-edge geometry, precomputed once at level construction and stored
  /// once, as unit-stride per-component streams for the kernel layer
  /// (nsu3d/kernels.*): the dual-face normal n (oriented a -> b), its
  /// area |n|, the unit normal n / area (0 if degenerate), the half offset
  /// 0.5 * (center_b - center_a), the Venkatakrishnan (0.3 h)^3 and the
  /// viscous metric area/length (0 when either vanishes). The normals of
  /// the agglomerated coarse levels are sums of fine normals, so they are
  /// built as Vec3s and live only until construction has derived these
  /// streams from them.
  std::vector<real_t> edge_area;
  std::vector<real_t> edge_nx, edge_ny, edge_nz;
  std::vector<real_t> edge_ux, edge_uy, edge_uz;
  std::vector<real_t> edge_dx, edge_dy, edge_dz;
  std::vector<real_t> edge_eps2;
  std::vector<real_t> edge_geo;
  std::vector<real_t> node_volume;
  /// 1 / max(node_volume, 1e-300): the gradient normalization factor. The
  /// scalar path divides a Vec3 by max(vol, 1e-300), which geom::Vec3
  /// implements as multiplication by the reciprocal — precomputing that
  /// reciprocal once is bitwise-identical.
  std::vector<real_t> inv_volume;
  std::vector<geom::Vec3> node_center;             // volume centroid proxy
  /// Outward boundary closure per node, per BoundaryTag (Wall/Farfield/Sym).
  std::vector<std::array<geom::Vec3, 3>> boundary_normal;
  std::vector<real_t> wall_distance;

  /// Implicit line set, in extraction order. Every level has one: lines
  /// are extracted again from each agglomerated coupling graph, so coarse
  /// levels keep multi-node lines where the coupling stays anisotropic
  /// (level 1 of the nsu3d-wing mesh: 536 of its 773 lines, up to 71 nodes)
  /// and single points elsewhere.
  graph::LineSet lines;

  /// One batch of the line solver: the lines line_order[first, first +
  /// count), each `length` nodes long, solved side by side.
  struct LineBatch {
    std::uint32_t first = 0, count = 0, length = 0;
  };
  /// The line solver's schedule, built with the level. line_order lists
  /// the line ids by length, longest first; lines of one length keep
  /// extraction order (a stable sort). line_batches cuts each run of one
  /// length into batches of linalg::kLanes lines, the last one shorter if
  /// the run does not divide, and tiles line_order in order: the sweep
  /// solves the long lines first, so they do not trail it.
  std::vector<index_t> line_order;
  std::vector<LineBatch> line_batches;

  /// Map to the next coarser level (empty on the coarsest).
  std::vector<index_t> to_coarse;

  /// Per-node incident edge ids, each list in edge storage order; node v
  /// is edge e's 'a' side when edges[e].first == v.
  FlatLists<index_t> incident;

  /// For line k, entry j is the id of the edge joining line[j] to
  /// line[j+1]; line[j] is its 'a' side when edges[e].first == line[j].
  /// Lines only chain graph neighbours, so the edge always exists.
  /// Precomputed so the block-tridiagonal assembly does not search
  /// `incident` every sweep.
  FlatLists<index_t> line_edges;

  index_t num_edge_colors() const {
    return color_offsets.size() < 2 ? 0 : index_t(color_offsets.size() - 1);
  }

  /// Dual-face normal of edge e, oriented a -> b.
  geom::Vec3 edge_normal(std::size_t e) const {
    return {edge_nx[e], edge_ny[e], edge_nz[e]};
  }

  bool is_wall_node(index_t v) const {
    const geom::Vec3& n =
        boundary_normal[std::size_t(v)][std::size_t(mesh::BoundaryTag::Wall)];
    return dot(n, n) > 0;
  }
};

struct LevelOptions {
  int num_levels = 4;
  /// Edge-coupling ratio above which an edge joins an implicit line.
  real_t line_threshold = 4.0;
};

/// Builds the hierarchy: level 0 from the mesh's dual metrics, coarser
/// levels by agglomerating the coupling-weighted graph.
std::vector<Level> build_levels(const mesh::UnstructuredMesh& m,
                                const LevelOptions& opt);

}  // namespace columbia::nsu3d
