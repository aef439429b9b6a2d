#include "nsu3d/level.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "graph/agglomerate.hpp"
#include "graph/coloring.hpp"
#include "graph/csr.hpp"
#include "graph/lines.hpp"
#include "support/assert.hpp"

namespace columbia::nsu3d {

using geom::Vec3;

namespace {

/// Applies a permutation (perm[new_id] = old_id) to one parallel edge
/// array: out[k] = v[perm[k]].
template <class T>
std::vector<T> permuted(const std::vector<T>& v,
                        const std::vector<index_t>& perm) {
  std::vector<T> out;
  out.reserve(v.size());
  for (index_t old_id : perm) out.push_back(v[std::size_t(old_id)]);
  return out;
}

}  // namespace

void Level::build_incident() {
  incident.assign(std::size_t(num_nodes),
                  std::vector<std::pair<index_t, real_t>>{});
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto [a, b] = edges[e];
    incident[std::size_t(a)].push_back({index_t(e), +1.0});
    incident[std::size_t(b)].push_back({index_t(e), -1.0});
  }
}

void Level::order_edges(bool color) {
  if (color && !edges.empty()) {
    const std::vector<index_t> colors = graph::color_edges(num_nodes, edges);
    graph::ColorOrder order = graph::color_major_order(colors);
    edges = permuted(edges, order.perm);
    edge_normal = permuted(edge_normal, order.perm);
    edge_length = permuted(edge_length, order.perm);
    color_offsets = std::move(order.offsets);
  } else {
    color_offsets = {0, edges.size()};
  }
}

void Level::finalize_edges() {
  // Within a color, edges by first node. A node meets at most one edge
  // per color, so this never changes a per-node accumulation order, but
  // it gives each pooled chunk a compact node range: on the agglomerated
  // coarse levels, whose node numbering is scattered, that keeps threads
  // off each other's cache lines of the per-node blocks. (Without
  // coloring the single span is left alone.)
  if (color_offsets.size() > 2) {
    std::vector<index_t> perm(edges.size());
    for (std::size_t e = 0; e < perm.size(); ++e) perm[e] = index_t(e);
    for (std::size_t c = 0; c + 1 < color_offsets.size(); ++c)
      std::sort(perm.begin() + std::ptrdiff_t(color_offsets[c]),
                perm.begin() + std::ptrdiff_t(color_offsets[c + 1]),
                [&](index_t x, index_t y) {
                  return edges[std::size_t(x)].first <
                         edges[std::size_t(y)].first;
                });
    edges = permuted(edges, perm);
    edge_normal = permuted(edge_normal, perm);
    edge_length = permuted(edge_length, perm);
  }

  edge_area.resize(edges.size());
  edge_unit.resize(edges.size());
  edge_dab.resize(edges.size());
  edge_eps2.resize(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto [a, b] = edges[e];
    const real_t area = norm(edge_normal[e]);
    edge_area[e] = area;
    edge_unit[e] = area > 0 ? edge_normal[e] / area : Vec3{};
    edge_dab[e] = 0.5 * (node_center[std::size_t(b)] -
                         node_center[std::size_t(a)]);
    edge_eps2[e] = std::pow(0.3 * edge_length[e], 3);
  }

  // SoA mirrors for the kernel layer.
  const std::size_t ne = edges.size();
  edge_a.resize(ne);
  edge_b.resize(ne);
  edge_nx.resize(ne);
  edge_ny.resize(ne);
  edge_nz.resize(ne);
  edge_ux.resize(ne);
  edge_uy.resize(ne);
  edge_uz.resize(ne);
  edge_dx.resize(ne);
  edge_dy.resize(ne);
  edge_dz.resize(ne);
  edge_geo.resize(ne);
  for (std::size_t e = 0; e < ne; ++e) {
    edge_a[e] = edges[e].first;
    edge_b[e] = edges[e].second;
    edge_nx[e] = edge_normal[e].x;
    edge_ny[e] = edge_normal[e].y;
    edge_nz[e] = edge_normal[e].z;
    edge_ux[e] = edge_unit[e].x;
    edge_uy[e] = edge_unit[e].y;
    edge_uz[e] = edge_unit[e].z;
    edge_dx[e] = edge_dab[e].x;
    edge_dy[e] = edge_dab[e].y;
    edge_dz[e] = edge_dab[e].z;
    edge_geo[e] = (edge_area[e] > 0 && edge_length[e] > 0)
                      ? edge_area[e] / edge_length[e]
                      : 0.0;
  }
  inv_volume.resize(node_volume.size());
  for (std::size_t i = 0; i < node_volume.size(); ++i)
    inv_volume[i] = 1.0 / std::max(node_volume[i], real_t(1e-300));

  build_incident();
  build_line_edges();
}

void Level::build_line_edges() {
  line_edges.assign(lines.lines.size(), {});
  for (std::size_t li = 0; li < lines.lines.size(); ++li) {
    const auto& line = lines.lines[li];
    if (line.empty()) continue;
    auto& le = line_edges[li];
    le.assign(line.size() - 1, {kInvalidIndex, 0.0});
    for (std::size_t k = 0; k + 1 < line.size(); ++k) {
      const index_t i = line[k];
      const index_t j = line[k + 1];
      for (const auto& [eid, sgn] : incident[std::size_t(i)]) {
        const auto [ea, eb] = edges[std::size_t(eid)];
        const index_t other = ea == i ? eb : ea;
        if (other != j) continue;
        le[k] = {eid, sgn};
        break;
      }
    }
  }
}

namespace {

/// Assigns line bookkeeping (line_of_node / pos_in_line) from lines.
void index_lines(Level& lvl) {
  lvl.line_of_node.assign(std::size_t(lvl.num_nodes), kInvalidIndex);
  lvl.pos_in_line.assign(std::size_t(lvl.num_nodes), 0);
  for (std::size_t li = 0; li < lvl.lines.lines.size(); ++li) {
    const auto& line = lvl.lines.lines[li];
    for (std::size_t k = 0; k < line.size(); ++k) {
      lvl.line_of_node[std::size_t(line[k])] = index_t(li);
      lvl.pos_in_line[std::size_t(line[k])] = index_t(k);
    }
  }
}

/// Coarse level from a fine level via agglomeration of the coupling graph.
Level coarsen(Level& fine, bool color_edges) {
  // Coupling weights |n|/len seed the agglomeration priority so strongly
  // coupled (boundary-layer) regions agglomerate along their stiffness.
  std::vector<real_t> weights(fine.edges.size());
  for (std::size_t e = 0; e < fine.edges.size(); ++e)
    weights[e] = fine.edge_length[e] > 0
                     ? norm(fine.edge_normal[e]) / fine.edge_length[e]
                     : 0.0;
  graph::Csr g = graph::Csr::from_weighted_edges(fine.num_nodes, fine.edges,
                                                 weights);
  const graph::Agglomeration agg = graph::agglomerate(g);
  fine.to_coarse = agg.fine_to_coarse;

  Level coarse;
  coarse.num_nodes = agg.coarse.num_vertices();
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

  // Coarse edges: accumulate fine dual-face normals across agglomerates.
  std::unordered_map<std::uint64_t, std::size_t> edge_of;
  for (std::size_t e = 0; e < fine.edges.size(); ++e) {
    const auto [a, b] = fine.edges[e];
    const index_t ca = fine.to_coarse[std::size_t(a)];
    const index_t cb = fine.to_coarse[std::size_t(b)];
    if (ca == cb) continue;
    const index_t lo = std::min(ca, cb), hi = std::max(ca, cb);
    const std::uint64_t key =
        (std::uint64_t(std::uint32_t(lo)) << 32) | std::uint32_t(hi);
    auto [it, inserted] = edge_of.emplace(key, coarse.edges.size());
    if (inserted) {
      coarse.edges.emplace_back(lo, hi);
      coarse.edge_normal.push_back({});
    }
    // Fine normal oriented a -> b; coarse edge oriented lo -> hi.
    const real_t sign = (ca == lo) == (a < b) ? 1.0 : -1.0;
    coarse.edge_normal[it->second] += sign * fine.edge_normal[e];
  }
  coarse.edge_length.resize(coarse.edges.size());
  for (std::size_t e = 0; e < coarse.edges.size(); ++e) {
    const auto [a, b] = coarse.edges[e];
    coarse.edge_length[e] = distance(coarse.node_center[std::size_t(a)],
                                     coarse.node_center[std::size_t(b)]);
  }

  // Line-implicit smoothing continues on coarse levels: extract lines from
  // the agglomerated coupling graph ("line-implicit driven agglomeration
  // multigrid", paper Sec. III). Where anisotropy has died out the lines
  // reduce to single points and the smoother becomes point-implicit.
  {
    std::vector<real_t> cw(coarse.edges.size());
    for (std::size_t e = 0; e < coarse.edges.size(); ++e)
      cw[e] = coarse.edge_length[e] > 0
                  ? norm(coarse.edge_normal[e]) / coarse.edge_length[e]
                  : 0.0;
    const graph::Csr cg = graph::Csr::from_weighted_edges(
        coarse.num_nodes, coarse.edges, cw);
    graph::LineOptions lo;
    coarse.lines = graph::extract_lines(cg, lo);
  }
  index_lines(coarse);
  coarse.order_edges(color_edges);
  return coarse;
}

}  // namespace

std::vector<Level> build_levels(const mesh::UnstructuredMesh& m,
                                const LevelOptions& opt) {
  COLUMBIA_REQUIRE(opt.num_levels >= 1);
  const mesh::DualMetrics dm = mesh::compute_dual_metrics(m);

  std::vector<Level> levels;
  Level fine;
  fine.num_nodes = m.num_points();
  fine.edges = dm.edges;
  fine.edge_normal = dm.edge_normal;
  fine.node_volume = dm.node_volume;
  fine.node_center = std::vector<Vec3>(m.points.begin(), m.points.end());
  fine.boundary_normal = dm.boundary_normal;
  fine.wall_distance = dm.wall_distance;
  fine.edge_length.resize(fine.edges.size());
  for (std::size_t e = 0; e < fine.edges.size(); ++e) {
    const auto [a, b] = fine.edges[e];
    fine.edge_length[e] =
        distance(m.points[std::size_t(a)], m.points[std::size_t(b)]);
  }

  // Implicit lines from the coupling-weighted graph (paper Fig. 5).
  {
    const std::vector<real_t> coupling = dm.edge_coupling(m);
    const graph::Csr g = graph::Csr::from_weighted_edges(
        fine.num_nodes, fine.edges, coupling);
    graph::LineOptions lo;
    lo.anisotropy_threshold = opt.line_threshold;
    fine.lines = graph::extract_lines(g, lo);
  }
  index_lines(fine);
  fine.order_edges(opt.color_edges);
  levels.push_back(std::move(fine));

  for (int l = 1; l < opt.num_levels; ++l) {
    Level coarse = coarsen(levels.back(), opt.color_edges);
    if (coarse.num_nodes >= levels.back().num_nodes) break;
    levels.push_back(std::move(coarse));
    if (levels.back().num_nodes <= 4) break;
  }
  // Coarsening read each level's color-major edge order; only now may the
  // color spans be re-sorted.
  for (Level& lvl : levels) lvl.finalize_edges();
  return levels;
}

}  // namespace columbia::nsu3d
