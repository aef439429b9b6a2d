#include "nsu3d/level.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "graph/agglomerate.hpp"
#include "graph/coloring.hpp"
#include "graph/csr.hpp"
#include "graph/lines.hpp"
#include "linalg/lanes.hpp"
#include "smp/pool.hpp"
#include "support/assert.hpp"
#include "support/edge_index.hpp"

namespace columbia::nsu3d {

using geom::Vec3;

namespace {

/// Edges per chunk of the pooled per-edge passes. Each pass writes only
/// its own edge's entries, so the result does not depend on the chunking.
constexpr std::size_t kEdgeGrain = 4096;

/// Runs fn(e) for every e in [0, n) on the pool.
template <class Fn>
void for_edges(std::size_t n, Fn&& fn) {
  smp::ThreadPool::global().parallel_for(
      0, n, kEdgeGrain, [&](std::size_t lb, std::size_t le, int) {
        for (std::size_t e = lb; e < le; ++e) fn(e);
      });
}

/// Sizes every vector to n. The memory is allocated here, on the calling
/// thread (a pool worker's allocation lands in its own malloc arena, which
/// the solver's later allocations do not reuse); the first touch, the
/// zeroing, runs one vector per pool task.
template <class... Vs>
void resize_in_parallel(std::size_t n, Vs&... vs) {
  (vs.reserve(n), ...);
  const std::array<void (*)(void*, std::size_t), sizeof...(Vs)> resize{
      [](void* v, std::size_t k) { static_cast<Vs*>(v)->resize(k); }...};
  const std::array<void*, sizeof...(Vs)> target{&vs...};
  smp::ThreadPool::global().parallel_for(
      0, sizeof...(Vs), 1, [&](std::size_t b, std::size_t e, int) {
        for (std::size_t i = b; i < e; ++i) resize[i](target[i], n);
      });
}

/// Applies a permutation (perm[new_id] = old_id) to one parallel edge
/// array: out[k] = v[perm[k]].
template <class T>
std::vector<T> permuted(const std::vector<T>& v,
                        const std::vector<index_t>& perm) {
  std::vector<T> out(perm.size());
  for_edges(perm.size(), [&](std::size_t k) {
    out[k] = v[std::size_t(perm[k])];
  });
  return out;
}

/// |n| / len, 0 for a degenerate edge: the coupling weight that orders
/// line extraction.
std::vector<real_t> coupling_weights(const std::vector<Vec3>& normal,
                                     const std::vector<real_t>& length) {
  std::vector<real_t> w(normal.size());
  for_edges(w.size(), [&](std::size_t e) {
    w[e] = length[e] > 0 ? norm(normal[e]) / length[e] : 0.0;
  });
  return w;
}

/// For each line, the id of the edge joining consecutive line nodes: one
/// pass over the edges with each node's line and position at hand. Edges
/// are unique, so at most one edge joins two nodes, and extract_lines only
/// chains graph neighbours, so every entry is found.
FlatLists<index_t> line_edge_table(
    index_t num_nodes, const graph::LineSet& lines,
    const std::vector<std::pair<index_t, index_t>>& edges) {
  FlatLists<index_t> le;
  const std::size_t nl = lines.lines.size();
  le.offsets.assign(nl + 1, 0);
  std::vector<index_t> line_of(std::size_t(num_nodes), kInvalidIndex);
  std::vector<index_t> pos(std::size_t(num_nodes), 0);
  for (std::size_t li = 0; li < nl; ++li) {
    const auto line = lines.lines[li];
    le.offsets[li + 1] = le.offsets[li] + (line.empty() ? 0 : line.size() - 1);
    for (std::size_t k = 0; k < line.size(); ++k) {
      line_of[std::size_t(line[k])] = index_t(li);
      pos[std::size_t(line[k])] = index_t(k);
    }
  }
  le.items.assign(le.offsets.back(), kInvalidIndex);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto [a, b] = edges[e];
    const index_t li = line_of[std::size_t(a)];
    if (li == kInvalidIndex || li != line_of[std::size_t(b)]) continue;
    const index_t pa = pos[std::size_t(a)], pb = pos[std::size_t(b)];
    if (pb == pa + 1)
      le.items[le.offsets[std::size_t(li)] + std::size_t(pa)] = index_t(e);
    else if (pa == pb + 1)
      le.items[le.offsets[std::size_t(li)] + std::size_t(pb)] = index_t(e);
  }
  for (const index_t e : le.items) COLUMBIA_REQUIRE(e != kInvalidIndex);
  return le;
}

/// Level::line_order and Level::line_batches of the level's lines.
void schedule_lines(Level& lvl) {
  const FlatLists<index_t>& lines = lvl.lines.lines;
  const auto length = [&](index_t li) { return lines[std::size_t(li)].size(); };
  const std::size_t nl = lines.size();
  lvl.line_order.resize(nl);
  for (std::size_t li = 0; li < nl; ++li) lvl.line_order[li] = index_t(li);
  std::stable_sort(lvl.line_order.begin(), lvl.line_order.end(),
                   [&](index_t x, index_t y) { return length(x) > length(y); });
  lvl.line_batches.clear();
  for (std::size_t run = 0; run < nl;) {
    const std::size_t len = length(lvl.line_order[run]);
    std::size_t end = run;
    while (end < nl && length(lvl.line_order[end]) == len) ++end;
    for (std::size_t q = run; q < end; q += std::size_t(linalg::kLanes))
      lvl.line_batches.push_back(
          {std::uint32_t(q),
           std::uint32_t(std::min(end - q, std::size_t(linalg::kLanes))),
           std::uint32_t(len)});
    run = end;
  }
}

/// Colors + reorders the edge arrays color-major. The next coarser level
/// is built from this order.
void order_edges(Level& lvl, std::vector<Vec3>& normal) {
  if (!lvl.edges.empty()) {
    const std::vector<index_t> colors =
        graph::color_edges(lvl.num_nodes, lvl.edges);
    graph::ColorOrder order = graph::color_major_order(colors);
    lvl.edges = permuted(lvl.edges, order.perm);
    normal = permuted(normal, order.perm);
    lvl.edge_length = permuted(lvl.edge_length, order.perm);
    lvl.color_offsets = std::move(order.offsets);
  } else {
    lvl.color_offsets = {0, lvl.edges.size()};
  }
}

/// Sorts each color span by first node, derives the per-edge streams from
/// the normals (which die here), and builds `incident`, `line_edges` and
/// the line schedule.
/// Runs after edges/normals/lengths/centers are final and the next coarser
/// level has been built.
void finalize_edges(Level& lvl, std::vector<Vec3> normal) {
  auto& edges = lvl.edges;
  const auto& offsets = lvl.color_offsets;
  // Within a color, edges by first node. A node meets at most one edge
  // per color, so this never changes a per-node accumulation order, but
  // it gives each pooled chunk a compact node range: on the agglomerated
  // coarse levels, whose node numbering is scattered, that keeps threads
  // off each other's cache lines of the per-node blocks. (A level of one
  // color keeps its order.) The first nodes within a color are distinct,
  // so each span has one sorted order and the spans sort in parallel.
  if (offsets.size() > 2) {
    std::vector<index_t> perm(edges.size());
    for_edges(perm.size(), [&](std::size_t e) { perm[e] = index_t(e); });
    smp::ThreadPool::global().parallel_for(
        0, offsets.size() - 1, 1, [&](std::size_t cb, std::size_t ce, int) {
          for (std::size_t c = cb; c < ce; ++c)
            std::sort(perm.begin() + std::ptrdiff_t(offsets[c]),
                      perm.begin() + std::ptrdiff_t(offsets[c + 1]),
                      [&](index_t x, index_t y) {
                        return edges[std::size_t(x)].first <
                               edges[std::size_t(y)].first;
                      });
        });
    edges = permuted(edges, perm);
    normal = permuted(normal, perm);
    lvl.edge_length = permuted(lvl.edge_length, perm);
  }

  // The per-edge streams of the kernel layer. The arrays are sized one per
  // pool task, so their first touch is spread over the threads, then
  // filled by a pooled loop.
  const std::size_t ne = edges.size();
  resize_in_parallel(ne, lvl.edge_area, lvl.edge_eps2, lvl.edge_nx,
                     lvl.edge_ny, lvl.edge_nz, lvl.edge_ux, lvl.edge_uy,
                     lvl.edge_uz, lvl.edge_dx, lvl.edge_dy, lvl.edge_dz,
                     lvl.edge_geo);
  for_edges(ne, [&](std::size_t e) {
    const auto [a, b] = edges[e];
    const Vec3 n = normal[e];
    const real_t area = norm(n);
    const Vec3 unit = area > 0 ? n / area : Vec3{};
    const Vec3 half = 0.5 * (lvl.node_center[std::size_t(b)] -
                             lvl.node_center[std::size_t(a)]);
    const real_t len = lvl.edge_length[e];
    lvl.edge_area[e] = area;
    lvl.edge_eps2[e] = std::pow(0.3 * len, 3);
    lvl.edge_nx[e] = n.x;
    lvl.edge_ny[e] = n.y;
    lvl.edge_nz[e] = n.z;
    lvl.edge_ux[e] = unit.x;
    lvl.edge_uy[e] = unit.y;
    lvl.edge_uz[e] = unit.z;
    lvl.edge_dx[e] = half.x;
    lvl.edge_dy[e] = half.y;
    lvl.edge_dz[e] = half.z;
    lvl.edge_geo[e] = (area > 0 && len > 0) ? area / len : 0.0;
  });
  lvl.inv_volume.resize(lvl.node_volume.size());
  for (std::size_t i = 0; i < lvl.node_volume.size(); ++i)
    lvl.inv_volume[i] = 1.0 / std::max(lvl.node_volume[i], real_t(1e-300));

  lvl.incident = edge_incidence(lvl.num_nodes, edges);
  lvl.line_edges = line_edge_table(lvl.num_nodes, lvl.lines, edges);
  schedule_lines(lvl);
}

/// Coarse level from a fine level via agglomeration of its edge graph;
/// the coarse normals go to `coarse_normal`.
Level coarsen(Level& fine, const std::vector<Vec3>& fine_normal,
              std::vector<Vec3>& coarse_normal) {
  const graph::Csr g = graph::Csr::from_edges(fine.num_nodes, fine.edges);
  graph::AgglomerateMap agg = graph::agglomerate_map(g);
  fine.to_coarse = std::move(agg.fine_to_coarse);

  Level coarse;
  coarse.num_nodes = agg.num_coarse;
  coarse.node_volume.assign(std::size_t(coarse.num_nodes), 0.0);
  coarse.node_center.assign(std::size_t(coarse.num_nodes), Vec3{});
  coarse.boundary_normal.assign(std::size_t(coarse.num_nodes), {});
  coarse.wall_distance.assign(std::size_t(coarse.num_nodes), 0.0);

  for (index_t v = 0; v < fine.num_nodes; ++v) {
    const std::size_t c = std::size_t(fine.to_coarse[std::size_t(v)]);
    const real_t vol = fine.node_volume[std::size_t(v)];
    coarse.node_volume[c] += vol;
    coarse.node_center[c] += vol * fine.node_center[std::size_t(v)];
    coarse.wall_distance[c] += vol * fine.wall_distance[std::size_t(v)];
    for (int t = 0; t < 3; ++t)
      coarse.boundary_normal[c][std::size_t(t)] +=
          fine.boundary_normal[std::size_t(v)][std::size_t(t)];
  }
  for (index_t c = 0; c < coarse.num_nodes; ++c) {
    const real_t vol = coarse.node_volume[std::size_t(c)];
    if (vol > 0) {
      coarse.node_center[std::size_t(c)] =
          coarse.node_center[std::size_t(c)] / vol;
      coarse.wall_distance[std::size_t(c)] /= vol;
    }
  }

  // Coarse edges: accumulate fine dual-face normals across agglomerates,
  // numbered in first-seen order over the fine edges.
  coarse_normal.clear();
  EdgeIndex edge_of(coarse.num_nodes, fine.edges.size() / 4);
  for (std::size_t e = 0; e < fine.edges.size(); ++e) {
    const auto [a, b] = fine.edges[e];
    const index_t ca = fine.to_coarse[std::size_t(a)];
    const index_t cb = fine.to_coarse[std::size_t(b)];
    if (ca == cb) continue;
    const index_t lo = std::min(ca, cb), hi = std::max(ca, cb);
    const auto [id, inserted] = edge_of.insert(lo, hi);
    if (inserted) {
      coarse.edges.emplace_back(lo, hi);
      coarse_normal.push_back({});
    }
    // Fine normal oriented a -> b; coarse edge oriented lo -> hi.
    const real_t sign = (ca == lo) == (a < b) ? 1.0 : -1.0;
    coarse_normal[std::size_t(id)] += sign * fine_normal[e];
  }
  coarse.edge_length.resize(coarse.edges.size());
  for_edges(coarse.edges.size(), [&](std::size_t e) {
    const auto [a, b] = coarse.edges[e];
    coarse.edge_length[e] = distance(coarse.node_center[std::size_t(a)],
                                     coarse.node_center[std::size_t(b)]);
  });

  // Line-implicit smoothing continues on coarse levels: extract lines from
  // the agglomerated coupling graph ("line-implicit driven agglomeration
  // multigrid", paper Sec. III). Where anisotropy has died out the lines
  // reduce to single points and the smoother becomes point-implicit.
  const graph::Csr cg = graph::Csr::from_weighted_edges(
      coarse.num_nodes, coarse.edges,
      coupling_weights(coarse_normal, coarse.edge_length));
  coarse.lines = graph::extract_lines(cg, graph::LineOptions{});
  order_edges(coarse, coarse_normal);
  return coarse;
}

}  // namespace

std::vector<Level> build_levels(const mesh::UnstructuredMesh& m,
                                const LevelOptions& opt) {
  COLUMBIA_REQUIRE(opt.num_levels >= 1);
  mesh::DualMetrics dm = mesh::compute_dual_metrics(m);

  std::vector<Level> levels;
  // Each level's dual-face normals, until finalize_edges consumes them.
  std::vector<std::vector<Vec3>> normals;
  Level fine;
  fine.num_nodes = m.num_points();
  fine.edges = std::move(dm.edges);
  std::vector<Vec3> fine_normal = std::move(dm.edge_normal);
  fine.node_volume = std::move(dm.node_volume);
  fine.node_center = std::vector<Vec3>(m.points.begin(), m.points.end());
  fine.boundary_normal = std::move(dm.boundary_normal);
  fine.wall_distance = std::move(dm.wall_distance);
  fine.edge_length.resize(fine.edges.size());
  for_edges(fine.edges.size(), [&](std::size_t e) {
    const auto [a, b] = fine.edges[e];
    fine.edge_length[e] =
        distance(m.points[std::size_t(a)], m.points[std::size_t(b)]);
  });

  // Implicit lines from the coupling-weighted graph (paper Fig. 5); the
  // weights are DualMetrics::edge_coupling's, from the lengths just taken.
  {
    const graph::Csr g = graph::Csr::from_weighted_edges(
        fine.num_nodes, fine.edges,
        coupling_weights(fine_normal, fine.edge_length));
    graph::LineOptions lo;
    lo.anisotropy_threshold = opt.line_threshold;
    fine.lines = graph::extract_lines(g, lo);
  }
  order_edges(fine, fine_normal);
  levels.push_back(std::move(fine));
  normals.push_back(std::move(fine_normal));

  for (int l = 1; l < opt.num_levels; ++l) {
    std::vector<Vec3> coarse_normal;
    Level coarse = coarsen(levels.back(), normals.back(), coarse_normal);
    if (coarse.num_nodes >= levels.back().num_nodes) break;
    levels.push_back(std::move(coarse));
    normals.push_back(std::move(coarse_normal));
    if (levels.back().num_nodes <= 4) break;
  }
  // Coarsening read each level's color-major edge order; only now may the
  // color spans be re-sorted.
  for (std::size_t l = 0; l < levels.size(); ++l)
    finalize_edges(levels[l], std::move(normals[l]));
  return levels;
}

}  // namespace columbia::nsu3d
