#include "graph/agglomerate.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "support/assert.hpp"

namespace columbia::graph {

AgglomerateMap agglomerate_map(const Csr& g, std::span<const real_t> priority) {
  const index_t n = g.num_vertices();
  COLUMBIA_REQUIRE(priority.empty() || index_t(priority.size()) == n);

  std::vector<index_t> order(std::size_t(n), 0);
  std::iota(order.begin(), order.end(), index_t(0));
  if (!priority.empty()) {
    std::stable_sort(order.begin(), order.end(), [&](index_t a, index_t b) {
      return priority[std::size_t(a)] > priority[std::size_t(b)];
    });
  }

  // Each unclaimed seed claims its unclaimed distance-<=2 neighborhood.
  // Distance-2 agglomeration yields level-to-level size ratios near the
  // paper's hierarchy (72M -> 9M -> 1M points, ratio ~8; Sec. VI).
  std::vector<index_t> map(std::size_t(n), kInvalidIndex);
  index_t nc = 0;
  for (index_t seed : order) {
    if (map[std::size_t(seed)] != kInvalidIndex) continue;
    map[std::size_t(seed)] = nc;
    for (index_t u : g.neighbors(seed)) {
      if (map[std::size_t(u)] == kInvalidIndex) map[std::size_t(u)] = nc;
      if (map[std::size_t(u)] != nc) continue;
      for (index_t w : g.neighbors(u))
        if (map[std::size_t(w)] == kInvalidIndex) map[std::size_t(w)] = nc;
    }
    ++nc;
  }

  // Absorb singleton agglomerates into a neighboring agglomerate: isolated
  // coarse points cost multigrid efficiency for no coverage gain.
  {
    std::vector<index_t> size(std::size_t(nc), 0);
    for (index_t v = 0; v < n; ++v) ++size[std::size_t(map[std::size_t(v)])];
    std::vector<index_t> relabel(std::size_t(nc), kInvalidIndex);
    for (index_t v = 0; v < n; ++v) {
      const index_t c = map[std::size_t(v)];
      if (size[std::size_t(c)] != 1) continue;
      for (index_t u : g.neighbors(v)) {
        const index_t cu = map[std::size_t(u)];
        if (cu != c && size[std::size_t(cu)] > 1) {
          map[std::size_t(v)] = cu;
          size[std::size_t(c)] = 0;
          ++size[std::size_t(cu)];
          break;
        }
      }
    }
    // Compact ids after absorption.
    index_t next = 0;
    for (index_t c = 0; c < nc; ++c)
      if (size[std::size_t(c)] > 0) relabel[std::size_t(c)] = next++;
    for (index_t v = 0; v < n; ++v)
      map[std::size_t(v)] = relabel[std::size_t(map[std::size_t(v)])];
    nc = next;
  }
  return {std::move(map), nc};
}

Agglomeration agglomerate(const Csr& g, std::span<const real_t> priority) {
  const index_t n = g.num_vertices();
  AgglomerateMap agg = agglomerate_map(g, priority);
  const index_t nc = agg.num_coarse;
  const std::vector<index_t>& map = agg.fine_to_coarse;

  // Coarse graph with accumulated boundary weights.
  std::unordered_map<std::uint64_t, real_t> acc;
  for (index_t v = 0; v < n; ++v) {
    const index_t cv = map[std::size_t(v)];
    const auto nbrs = g.neighbors(v);
    const auto ws = g.edge_weights(v);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      if (nbrs[k] <= v) continue;
      const index_t cu = map[std::size_t(nbrs[k])];
      if (cu == cv) continue;
      const index_t lo = std::min(cv, cu), hi = std::max(cv, cu);
      const std::uint64_t key =
          (std::uint64_t(std::uint32_t(lo)) << 32) | std::uint32_t(hi);
      acc[key] += ws.empty() ? 1.0 : ws[k];
    }
  }
  std::vector<std::pair<index_t, index_t>> edges;
  std::vector<real_t> w;
  edges.reserve(acc.size());
  for (const auto& [key, weight] : acc) {
    edges.emplace_back(index_t(key >> 32), index_t(key & 0xffffffffu));
    w.push_back(weight);
  }

  Agglomeration out;
  out.coarse = Csr::from_weighted_edges(nc, edges, w);
  // Coarse vertex weight = number of fine vertices agglomerated (work proxy).
  std::vector<real_t> vw(std::size_t(nc), 0.0);
  for (index_t v = 0; v < n; ++v)
    vw[std::size_t(map[std::size_t(v)])] += g.vertex_weight(v);
  out.coarse.set_vertex_weights(std::move(vw));
  out.fine_to_coarse = std::move(agg.fine_to_coarse);
  return out;
}

std::vector<index_t> match_partitions(std::span<const index_t> fine_part,
                                      std::span<const index_t> fine_to_coarse,
                                      std::span<const index_t> coarse_part,
                                      index_t nparts) {
  COLUMBIA_REQUIRE(fine_part.size() == fine_to_coarse.size());

  // overlap[cp][fp] = number of fine vertices in coarse part cp whose fine
  // part is fp. Sparse accumulation keeps this O(n).
  std::vector<std::unordered_map<index_t, index_t>> overlap(
      std::size_t(nparts), std::unordered_map<index_t, index_t>{});
  for (std::size_t v = 0; v < fine_part.size(); ++v) {
    const index_t cp = coarse_part[std::size_t(fine_to_coarse[v])];
    overlap[std::size_t(cp)][fine_part[v]]++;
  }

  // Greedy: repeatedly take the largest remaining (cp, fp) overlap and bind
  // coarse part cp to label fp, until every coarse part is labeled.
  struct Cand {
    index_t count, cp, fp;
  };
  std::vector<Cand> cands;
  for (index_t cp = 0; cp < nparts; ++cp)
    for (const auto& [fp, cnt] : overlap[std::size_t(cp)])
      cands.push_back({cnt, cp, fp});
  std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
    if (a.count != b.count) return a.count > b.count;
    if (a.cp != b.cp) return a.cp < b.cp;
    return a.fp < b.fp;
  });

  std::vector<index_t> relabel(std::size_t(nparts), kInvalidIndex);
  std::vector<bool> label_used(std::size_t(nparts), false);
  for (const Cand& c : cands) {
    if (relabel[std::size_t(c.cp)] != kInvalidIndex ||
        label_used[std::size_t(c.fp)])
      continue;
    relabel[std::size_t(c.cp)] = c.fp;
    label_used[std::size_t(c.fp)] = true;
  }
  // Unbound coarse parts take any free label.
  index_t next = 0;
  for (index_t cp = 0; cp < nparts; ++cp) {
    if (relabel[std::size_t(cp)] != kInvalidIndex) continue;
    while (label_used[std::size_t(next)]) ++next;
    relabel[std::size_t(cp)] = next;
    label_used[std::size_t(next)] = true;
  }

  std::vector<index_t> out(coarse_part.size());
  for (std::size_t c = 0; c < coarse_part.size(); ++c)
    out[c] = relabel[std::size_t(coarse_part[c])];
  return out;
}

real_t partition_overlap(std::span<const index_t> fine_part,
                         std::span<const index_t> fine_to_coarse,
                         std::span<const index_t> coarse_part) {
  COLUMBIA_REQUIRE(fine_part.size() == fine_to_coarse.size());
  if (fine_part.empty()) return 1.0;
  std::size_t same = 0;
  for (std::size_t v = 0; v < fine_part.size(); ++v)
    if (coarse_part[std::size_t(fine_to_coarse[v])] == fine_part[v]) ++same;
  return real_t(same) / real_t(fine_part.size());
}

}  // namespace columbia::graph
