#include "graph/partition.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>
#include <unordered_map>

#include "support/assert.hpp"
#include "support/random.hpp"

namespace columbia::graph {

namespace {

struct CoarseLevel {
  Csr graph;
  std::vector<index_t> fine_to_coarse;
};

/// Heavy-edge matching: visit vertices in random order, match each unmatched
/// vertex with its unmatched neighbor of maximum edge weight.
CoarseLevel coarsen_once(const Csr& g, Xoshiro256& rng) {
  const index_t n = g.num_vertices();
  std::vector<index_t> match(std::size_t(n), kInvalidIndex);
  std::vector<index_t> visit(std::size_t(n), 0);
  std::iota(visit.begin(), visit.end(), index_t(0));
  for (index_t i = n - 1; i > 0; --i)
    std::swap(visit[std::size_t(i)],
              visit[std::size_t(rng.below(std::uint64_t(i) + 1))]);

  for (index_t v : visit) {
    if (match[std::size_t(v)] != kInvalidIndex) continue;
    index_t best = kInvalidIndex;
    real_t best_w = -1;
    const auto nbrs = g.neighbors(v);
    const auto ws = g.edge_weights(v);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const index_t u = nbrs[k];
      if (match[std::size_t(u)] != kInvalidIndex) continue;
      const real_t w = ws.empty() ? 1.0 : ws[k];
      if (w > best_w) {
        best_w = w;
        best = u;
      }
    }
    if (best == kInvalidIndex) {
      match[std::size_t(v)] = v;  // stays single
    } else {
      match[std::size_t(v)] = best;
      match[std::size_t(best)] = v;
    }
  }

  // Number coarse vertices.
  std::vector<index_t> map(std::size_t(n), kInvalidIndex);
  index_t nc = 0;
  for (index_t v = 0; v < n; ++v) {
    if (map[std::size_t(v)] != kInvalidIndex) continue;
    map[std::size_t(v)] = nc;
    const index_t m = match[std::size_t(v)];
    if (m != v) map[std::size_t(m)] = nc;
    ++nc;
  }

  // Build coarse graph: sum parallel edges, sum vertex weights.
  std::vector<real_t> cvw(std::size_t(nc), 0.0);
  for (index_t v = 0; v < n; ++v)
    cvw[std::size_t(map[std::size_t(v)])] += g.vertex_weight(v);

  std::vector<std::pair<index_t, index_t>> cedges;
  std::vector<real_t> cw;
  std::unordered_map<std::uint64_t, std::size_t> seen;
  for (index_t v = 0; v < n; ++v) {
    const index_t cv = map[std::size_t(v)];
    const auto nbrs = g.neighbors(v);
    const auto ws = g.edge_weights(v);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const index_t cu = map[std::size_t(nbrs[k])];
      if (cu <= cv) continue;  // each undirected coarse edge from one side
      const std::uint64_t key =
          (std::uint64_t(std::uint32_t(cv)) << 32) | std::uint32_t(cu);
      const real_t w = ws.empty() ? 1.0 : ws[k];
      auto [it, inserted] = seen.emplace(key, cedges.size());
      if (inserted) {
        cedges.emplace_back(cv, cu);
        cw.push_back(w);
      } else {
        cw[it->second] += w;
      }
    }
  }

  CoarseLevel lvl;
  lvl.graph = Csr::from_weighted_edges(nc, cedges, cw);
  lvl.graph.set_vertex_weights(std::move(cvw));
  lvl.fine_to_coarse = std::move(map);
  return lvl;
}

std::vector<real_t> part_weights(const Csr& g, std::span<const index_t> part,
                                 index_t nparts) {
  std::vector<real_t> w(std::size_t(nparts), 0.0);
  for (index_t v = 0; v < g.num_vertices(); ++v)
    w[std::size_t(part[std::size_t(v)])] += g.vertex_weight(v);
  return w;
}

/// Region growing from a random unassigned seed until the accumulated
/// weight reaches `target`; assigns `id` to grown vertices. The frontier is
/// a max-heap keyed by connection weight to the region, so strongly coupled
/// vertices are absorbed first and weak seams end up on part boundaries.
void grow_region(const Csr& g, std::vector<index_t>& part, index_t id,
                 real_t target, Xoshiro256& rng) {
  const index_t n = g.num_vertices();
  std::vector<index_t> unassigned;
  for (index_t v = 0; v < n; ++v)
    if (part[std::size_t(v)] == kInvalidIndex) unassigned.push_back(v);
  if (unassigned.empty()) return;
  const index_t seed = unassigned[std::size_t(rng.below(unassigned.size()))];

  using Cand = std::pair<real_t, index_t>;  // (connection weight, vertex)
  std::priority_queue<Cand> frontier;
  auto absorb = [&](index_t v, real_t& grown) {
    part[std::size_t(v)] = id;
    grown += g.vertex_weight(v);
    const auto nbrs = g.neighbors(v);
    const auto ws = g.edge_weights(v);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      if (part[std::size_t(nbrs[k])] != kInvalidIndex) continue;
      frontier.push({ws.empty() ? 1.0 : ws[k], nbrs[k]});
    }
  };

  real_t grown = 0;
  absorb(seed, grown);
  std::size_t scan = 0;
  while (grown < target) {
    index_t next = kInvalidIndex;
    while (!frontier.empty()) {
      const index_t v = frontier.top().second;
      frontier.pop();
      if (part[std::size_t(v)] == kInvalidIndex) {
        next = v;
        break;
      }
    }
    if (next == kInvalidIndex) {
      // Disconnected remainder: jump to the next unassigned vertex.
      while (scan < unassigned.size() &&
             part[std::size_t(unassigned[scan])] != kInvalidIndex)
        ++scan;
      if (scan == unassigned.size()) break;
      next = unassigned[scan];
    }
    absorb(next, grown);
  }
}

/// Initial k-way partition by sequential region growing: parts 0..k-2 are
/// grown to the ideal weight; the remainder becomes part k-1.
std::vector<index_t> initial_partition(const Csr& g, index_t nparts,
                                       Xoshiro256& rng) {
  const index_t n = g.num_vertices();
  std::vector<index_t> part(std::size_t(n), kInvalidIndex);
  const real_t ideal = g.total_vertex_weight() / real_t(nparts);
  for (index_t p = 0; p + 1 < nparts; ++p) grow_region(g, part, p, ideal, rng);
  for (index_t v = 0; v < n; ++v)
    if (part[std::size_t(v)] == kInvalidIndex)
      part[std::size_t(v)] = nparts - 1;
  return part;
}

/// Boundary greedy refinement: move boundary vertices to the neighboring
/// part with the largest positive gain, subject to the balance constraint.
void refine(const Csr& g, std::vector<index_t>& part, index_t nparts,
            const PartitionOptions& opt) {
  const index_t n = g.num_vertices();
  std::vector<real_t> pw = part_weights(g, part, nparts);
  const real_t ideal = g.total_vertex_weight() / real_t(nparts);
  const real_t max_w = ideal * (1.0 + opt.imbalance);

  std::vector<real_t> gain(std::size_t(nparts), 0.0);
  for (int pass = 0; pass < opt.refine_passes; ++pass) {
    bool moved = false;
    for (index_t v = 0; v < n; ++v) {
      const index_t pv = part[std::size_t(v)];
      const auto nbrs = g.neighbors(v);
      const auto ws = g.edge_weights(v);
      bool boundary = false;
      for (index_t u : nbrs)
        if (part[std::size_t(u)] != pv) {
          boundary = true;
          break;
        }
      if (!boundary) continue;

      // Gain of moving v from pv to q: (edges to q) - (edges to pv).
      std::fill(gain.begin(), gain.end(), 0.0);
      real_t internal = 0;
      for (std::size_t k = 0; k < nbrs.size(); ++k) {
        const real_t w = ws.empty() ? 1.0 : ws[k];
        const index_t pu = part[std::size_t(nbrs[k])];
        if (pu == pv)
          internal += w;
        else
          gain[std::size_t(pu)] += w;
      }
      index_t best_q = kInvalidIndex;
      real_t best_gain = 0;
      const real_t wv = g.vertex_weight(v);
      for (index_t q = 0; q < nparts; ++q) {
        if (q == pv || gain[std::size_t(q)] == 0.0) continue;
        const real_t net = gain[std::size_t(q)] - internal;
        const bool balance_ok = pw[std::size_t(q)] + wv <= max_w;
        // Accept strictly positive gain, or zero-gain moves that improve
        // balance (helps escape plateaus).
        const bool improves_balance =
            net == 0.0 && pw[std::size_t(pv)] - wv > pw[std::size_t(q)] + wv;
        if (balance_ok && (net > best_gain || (net == 0.0 && best_q == kInvalidIndex && improves_balance))) {
          best_gain = net;
          best_q = q;
        }
      }
      if (best_q != kInvalidIndex) {
        pw[std::size_t(pv)] -= wv;
        pw[std::size_t(best_q)] += wv;
        part[std::size_t(v)] = best_q;
        moved = true;
      }
    }
    if (!moved) break;
  }
}

}  // namespace

std::vector<index_t> partition(const Csr& g, index_t nparts,
                               const PartitionOptions& opt) {
  COLUMBIA_REQUIRE(nparts >= 1);
  const index_t n = g.num_vertices();
  if (nparts == 1) return std::vector<index_t>(std::size_t(n), 0);
  if (n <= nparts) {
    // Degenerate case (paper Sec. VI: coarsest-level partitions may be
    // empty): spread vertices one per part.
    std::vector<index_t> part(std::size_t(n), 0);
    std::iota(part.begin(), part.end(), index_t(0));
    return part;
  }

  Xoshiro256 rng(opt.seed);

  // Coarsening phase.
  std::vector<CoarseLevel> levels;
  const Csr* current = &g;
  const index_t stop_at =
      std::max<index_t>(nparts * opt.coarsen_to_per_part, 64);
  while (current->num_vertices() > stop_at) {
    CoarseLevel lvl = coarsen_once(*current, rng);
    // Stalled coarsening (e.g. star graphs): give up and partition as is.
    if (lvl.graph.num_vertices() > current->num_vertices() * 95 / 100) break;
    levels.push_back(std::move(lvl));
    current = &levels.back().graph;
  }

  // Initial partition on the coarsest graph.
  std::vector<index_t> part = initial_partition(*current, nparts, rng);
  refine(*current, part, nparts, opt);

  // Uncoarsening + refinement.
  for (std::size_t li = levels.size(); li-- > 0;) {
    const Csr& fine = (li == 0) ? g : levels[li - 1].graph;
    const auto& map = levels[li].fine_to_coarse;
    std::vector<index_t> fine_part(std::size_t(fine.num_vertices()));
    for (index_t v = 0; v < fine.num_vertices(); ++v)
      fine_part[std::size_t(v)] = part[std::size_t(map[std::size_t(v)])];
    part = std::move(fine_part);
    refine(fine, part, nparts, opt);
  }

  // Empty-part repair: greedy region growth can exhaust the graph before
  // the last parts seed (overshoot on coarse graphs). Grow each empty part
  // out of the currently heaviest part.
  {
    std::vector<real_t> pw = part_weights(g, part, nparts);
    const real_t ideal = g.total_vertex_weight() / real_t(nparts);
    for (index_t p = 0; p < nparts; ++p) {
      if (pw[std::size_t(p)] > 0) continue;
      const index_t donor = index_t(
          std::max_element(pw.begin(), pw.end()) - pw.begin());
      // BFS a compact chunk of ~ideal weight inside the donor.
      index_t seed = kInvalidIndex;
      for (index_t v = 0; v < n && seed == kInvalidIndex; ++v)
        if (part[std::size_t(v)] == donor) seed = v;
      if (seed == kInvalidIndex) break;
      std::queue<index_t> q;
      q.push(seed);
      part[std::size_t(seed)] = p;
      real_t moved = g.vertex_weight(seed);
      while (!q.empty() && moved < ideal) {
        const index_t v = q.front();
        q.pop();
        for (index_t u : g.neighbors(v)) {
          if (part[std::size_t(u)] != donor) continue;
          part[std::size_t(u)] = p;
          moved += g.vertex_weight(u);
          q.push(u);
          if (moved >= ideal) break;
        }
      }
      pw[std::size_t(donor)] -= moved;
      pw[std::size_t(p)] += moved;
    }
    refine(g, part, nparts, opt);
  }
  return part;
}

PartitionQuality evaluate_partition(const Csr& g,
                                    std::span<const index_t> part,
                                    index_t nparts) {
  COLUMBIA_REQUIRE(index_t(part.size()) == g.num_vertices());
  PartitionQuality q;
  std::vector<real_t> pw(std::size_t(nparts), 0.0);
  for (index_t v = 0; v < g.num_vertices(); ++v) {
    pw[std::size_t(part[std::size_t(v)])] += g.vertex_weight(v);
    const auto nbrs = g.neighbors(v);
    const auto ws = g.edge_weights(v);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      if (nbrs[k] > v && part[std::size_t(nbrs[k])] != part[std::size_t(v)])
        q.edge_cut += ws.empty() ? 1.0 : ws[k];
    }
  }
  const real_t ideal = g.total_vertex_weight() / real_t(nparts);
  real_t max_w = 0;
  for (real_t w : pw) {
    max_w = std::max(max_w, w);
    if (w > 0) ++q.nonempty_parts;
  }
  q.imbalance = ideal > 0 ? max_w / ideal - 1.0 : 0.0;
  return q;
}

}  // namespace columbia::graph
