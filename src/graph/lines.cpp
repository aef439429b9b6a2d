#include "graph/lines.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "support/assert.hpp"

namespace columbia::graph {

index_t LineSet::longest() const {
  std::size_t m = 0;
  for (std::size_t i = 0; i < lines.size(); ++i)
    m = std::max(m, lines[i].size());
  return index_t(m);
}

index_t LineSet::vertices_in_lines() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < lines.size(); ++i)
    if (lines[i].size() >= 2) n += lines[i].size();
  return index_t(n);
}

namespace {

/// Strongest unassigned neighbor of v, provided (a) the node is
/// anisotropic — strongest/weakest coupling exceeds `threshold` (the
/// stretching-ratio criterion of the line-creation algorithm) — and (b)
/// the edge is within a factor two of the strongest coupling at v, so
/// lines follow the stiff direction and terminate instead of snaking
/// sideways along the wall.
index_t strong_next(const Csr& g, index_t v, const std::vector<bool>& assigned,
                    real_t threshold, index_t exclude) {
  const auto nbrs = g.neighbors(v);
  const auto ws = g.edge_weights(v);
  if (ws.empty()) return kInvalidIndex;  // unweighted graph: no anisotropy
  real_t weakest = ws[0], strongest = ws[0];
  for (real_t w : ws) {
    weakest = std::min(weakest, w);
    strongest = std::max(strongest, w);
  }
  if (weakest <= 0 || strongest < threshold * weakest) return kInvalidIndex;
  index_t best = kInvalidIndex;
  real_t best_w = 0.5 * strongest;
  for (std::size_t k = 0; k < nbrs.size(); ++k) {
    const index_t u = nbrs[k];
    if (u == exclude || assigned[std::size_t(u)]) continue;
    if (ws[k] > best_w) {
      best_w = ws[k];
      best = u;
    }
  }
  return best;
}

}  // namespace

LineSet extract_lines(const Csr& g, const LineOptions& opt) {
  const index_t n = g.num_vertices();
  LineSet ls;
  ls.lines.items.reserve(std::size_t(n));
  std::vector<bool> assigned(std::size_t(n), false);

  // Seed order: strongest-coupled vertices first (max edge weight), so lines
  // start at the wall where stretching is largest.
  std::vector<real_t> strength(std::size_t(n), 0.0);
  for (index_t v = 0; v < n; ++v)
    for (real_t w : g.edge_weights(v))
      strength[std::size_t(v)] = std::max(strength[std::size_t(v)], w);
  std::vector<index_t> order(std::size_t(n), 0);
  std::iota(order.begin(), order.end(), index_t(0));
  std::stable_sort(order.begin(), order.end(), [&](index_t a, index_t b) {
    return strength[std::size_t(a)] > strength[std::size_t(b)];
  });

  std::vector<index_t> line;
  for (index_t seed : order) {
    if (assigned[std::size_t(seed)]) continue;
    assigned[std::size_t(seed)] = true;
    line.assign(1, seed);

    // Grow forward from the seed, then backward from the seed's other side,
    // following the strongest sufficiently-anisotropic unclaimed edge.
    for (int dir = 0; dir < 2; ++dir) {
      index_t tail = dir == 0 ? line.back() : line.front();
      index_t came_from = kInvalidIndex;
      while (true) {
        const index_t nxt = strong_next(g, tail, assigned,
                                        opt.anisotropy_threshold, came_from);
        if (nxt == kInvalidIndex) break;
        assigned[std::size_t(nxt)] = true;
        if (dir == 0)
          line.push_back(nxt);
        else
          line.insert(line.begin(), nxt);
        came_from = tail;
        tail = nxt;
      }
    }
    ls.lines.items.insert(ls.lines.items.end(), line.begin(), line.end());
    ls.lines.offsets.push_back(ls.lines.items.size());
  }
  return ls;
}

ContractedGraph contract_lines(const Csr& g, const LineSet& ls) {
  const index_t n = g.num_vertices();
  ContractedGraph cg;
  cg.vertex_to_line.assign(std::size_t(n), kInvalidIndex);
  for (std::size_t li = 0; li < ls.lines.size(); ++li)
    for (const index_t v : ls.lines[li]) {
      COLUMBIA_REQUIRE(cg.vertex_to_line[std::size_t(v)] == kInvalidIndex);
      cg.vertex_to_line[std::size_t(v)] = index_t(li);
    }
  for (index_t v = 0; v < n; ++v)
    COLUMBIA_REQUIRE(cg.vertex_to_line[std::size_t(v)] != kInvalidIndex);

  std::unordered_map<std::uint64_t, real_t> acc;
  for (index_t v = 0; v < n; ++v) {
    const index_t lv = cg.vertex_to_line[std::size_t(v)];
    const auto nbrs = g.neighbors(v);
    const auto ws = g.edge_weights(v);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      if (nbrs[k] <= v) continue;
      const index_t lu = cg.vertex_to_line[std::size_t(nbrs[k])];
      if (lu == lv) continue;
      const index_t lo = std::min(lv, lu), hi = std::max(lv, lu);
      const std::uint64_t key =
          (std::uint64_t(std::uint32_t(lo)) << 32) | std::uint32_t(hi);
      acc[key] += ws.empty() ? 1.0 : ws[k];
    }
  }
  std::vector<std::pair<index_t, index_t>> edges;
  std::vector<real_t> w;
  for (const auto& [key, weight] : acc) {
    edges.emplace_back(index_t(key >> 32), index_t(key & 0xffffffffu));
    w.push_back(weight);
  }
  cg.graph =
      Csr::from_weighted_edges(index_t(ls.lines.size()), edges, w);
  std::vector<real_t> vw(ls.lines.size());
  for (std::size_t li = 0; li < ls.lines.size(); ++li)
    vw[li] = real_t(ls.lines[li].size());
  cg.graph.set_vertex_weights(std::move(vw));
  return cg;
}

std::vector<index_t> expand_line_partition(const ContractedGraph& cg,
                                           std::span<const index_t> line_part) {
  std::vector<index_t> part(cg.vertex_to_line.size());
  for (std::size_t v = 0; v < part.size(); ++v)
    part[v] = line_part[std::size_t(cg.vertex_to_line[v])];
  return part;
}

}  // namespace columbia::graph
