// Greedy edge coloring.
//
// On vector processors NSU3D colors the edge loop so that edges in one color
// touch disjoint vertices and the accumulate-to-points loop vectorizes
// (paper Sec. III). We color the *edge conflict graph* implicitly: two mesh
// edges conflict when they share a vertex.
#pragma once

#include <vector>

#include "graph/csr.hpp"

namespace columbia::graph {

/// Colors mesh edges (given as endpoint pairs over `num_vertices` vertices)
/// so no two edges of the same color share a vertex. Returns per-edge colors.
std::vector<index_t> color_edges(
    index_t num_vertices,
    std::span<const std::pair<index_t, index_t>> edges);

/// Number of distinct colors in a coloring.
index_t num_colors(std::span<const index_t> colors);

/// Color-major traversal order for a coloring: `perm[k]` is the original
/// id of the k-th item after a stable sort by color, and color `c`
/// occupies the contiguous span [offsets[c], offsets[c+1]). Reordering
/// edge arrays with `perm` makes every color a contiguous, race-free span
/// for the threaded scatter loops.
struct ColorOrder {
  std::vector<index_t> perm;         // new position -> original id
  std::vector<std::size_t> offsets;  // size num_colors + 1
};
ColorOrder color_major_order(std::span<const index_t> colors);

}  // namespace columbia::graph
