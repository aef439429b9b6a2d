#include "graph/coloring.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "support/assert.hpp"

namespace columbia::graph {

std::vector<index_t> color_edges(
    index_t num_vertices,
    std::span<const std::pair<index_t, index_t>> edges) {
  // First-fit over edges: each edge takes the lowest color neither endpoint
  // has used yet. Colors below 64 live in one bit mask per vertex; a pair
  // of vertices that has used all 64 between them continues in per-vertex
  // overflow sets, allocated on first need. Either way the edge gets the
  // same first-fit color.
  std::vector<std::uint64_t> low(std::size_t(num_vertices), 0);
  std::vector<std::vector<bool>> high;
  std::vector<index_t> color(edges.size(), kInvalidIndex);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto [a, b] = edges[e];
    COLUMBIA_REQUIRE(a >= 0 && a < num_vertices && b >= 0 && b < num_vertices);
    const std::uint64_t both = low[std::size_t(a)] | low[std::size_t(b)];
    if (both != ~std::uint64_t(0)) {
      const int c = std::countr_one(both);
      low[std::size_t(a)] |= std::uint64_t(1) << c;
      low[std::size_t(b)] |= std::uint64_t(1) << c;
      color[e] = index_t(c);
      continue;
    }
    if (high.empty()) high.resize(std::size_t(num_vertices));
    auto& ha = high[std::size_t(a)];
    auto& hb = high[std::size_t(b)];
    std::size_t c = 0;
    while ((c < ha.size() && ha[c]) || (c < hb.size() && hb[c])) ++c;
    if (c >= ha.size()) ha.resize(c + 1, false);
    if (c >= hb.size()) hb.resize(c + 1, false);
    ha[c] = hb[c] = true;
    color[e] = index_t(64 + c);
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
