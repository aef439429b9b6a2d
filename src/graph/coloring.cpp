#include "graph/coloring.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace columbia::graph {

std::vector<index_t> color_edges(
    index_t num_vertices,
    std::span<const std::pair<index_t, index_t>> edges) {
  // First-fit over edges: per vertex keep the set of colors already used by
  // incident edges, as a bitmask grown on demand.
  std::vector<std::vector<bool>> used(std::size_t(num_vertices),
                                      std::vector<bool>{});
  std::vector<index_t> color(edges.size(), kInvalidIndex);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto [a, b] = edges[e];
    COLUMBIA_REQUIRE(a >= 0 && a < num_vertices && b >= 0 && b < num_vertices);
    auto& ua = used[std::size_t(a)];
    auto& ub = used[std::size_t(b)];
    index_t c = 0;
    while (true) {
      const bool a_used = std::size_t(c) < ua.size() && ua[std::size_t(c)];
      const bool b_used = std::size_t(c) < ub.size() && ub[std::size_t(c)];
      if (!a_used && !b_used) break;
      ++c;
    }
    if (std::size_t(c) >= ua.size()) ua.resize(std::size_t(c) + 1, false);
    if (std::size_t(c) >= ub.size()) ub.resize(std::size_t(c) + 1, false);
    ua[std::size_t(c)] = ub[std::size_t(c)] = true;
    color[e] = c;
  }
  return color;
}

index_t num_colors(std::span<const index_t> colors) {
  index_t m = 0;
  for (index_t c : colors) m = std::max(m, c + 1);
  return m;
}

ColorOrder color_major_order(std::span<const index_t> colors) {
  ColorOrder out;
  const std::size_t nc = std::size_t(num_colors(colors));
  out.offsets.assign(nc + 1, 0);
  for (index_t c : colors) ++out.offsets[std::size_t(c) + 1];
  for (std::size_t c = 1; c <= nc; ++c) out.offsets[c] += out.offsets[c - 1];
  // Counting sort: stable within each color, so relative order of a
  // color's items is preserved.
  out.perm.assign(colors.size(), kInvalidIndex);
  std::vector<std::size_t> cursor(out.offsets.begin(), out.offsets.end() - 1);
  for (std::size_t e = 0; e < colors.size(); ++e)
    out.perm[cursor[std::size_t(colors[e])]++] = index_t(e);
  return out;
}

}  // namespace columbia::graph
