#include "mesh/dual_metrics.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "smp/pool.hpp"
#include "support/assert.hpp"
#include "support/edge_index.hpp"
#include "support/flat_lists.hpp"

namespace columbia::mesh {

namespace {

using geom::Vec3;

/// Area vector of triangle (a,b,c) = 0.5 (b-a) x (c-a).
Vec3 tri_area(const Vec3& a, const Vec3& b, const Vec3& c) {
  return 0.5 * cross(b - a, c - a);
}

/// (1/3) x_centroid . area — the divergence-theorem volume contribution of
/// one oriented triangle whose area vector is `area`.
real_t volume_term(const Vec3& a, const Vec3& b, const Vec3& c,
                   const Vec3& area) {
  return dot((a + b + c) / 3.0, area) / 3.0;
}

real_t tri_volume_term(const Vec3& a, const Vec3& b, const Vec3& c) {
  return volume_term(a, b, c, tri_area(a, b, c));
}

constexpr int kMaxEdges = 12;        // hex
constexpr int kMaxFaces = 6;         // hex
constexpr int kMaxFaceVertices = 24; // hex: 6 quads

/// For every local edge of an element type, the two faces holding both
/// endpoints, in face order: the first two hits of a scan over the faces.
struct EdgeFaces {
  std::array<std::array<int, 2>, kMaxEdges> faces{};
};

const EdgeFaces& edge_faces(ElementType t) {
  static const std::array<EdgeFaces, 4> tables = [] {
    std::array<EdgeFaces, 4> out{};
    for (const ElementType type : {ElementType::Tet, ElementType::Pyramid,
                                   ElementType::Prism, ElementType::Hex}) {
      const auto faces = element_faces(type);
      const auto edges = element_edges(type);
      for (std::size_t le = 0; le < edges.size(); ++le) {
        int nfound = 0;
        for (std::size_t f = 0; f < faces.size() && nfound < 2; ++f) {
          bool has_a = false, has_b = false;
          for (int k = 0; k < faces[f].n; ++k) {
            has_a |= faces[f].v[std::size_t(k)] == edges[le][0];
            has_b |= faces[f].v[std::size_t(k)] == edges[le][1];
          }
          if (has_a && has_b)
            out[std::size_t(type)].faces[le][std::size_t(nfound++)] = int(f);
        }
        COLUMBIA_ASSERT(nfound == 2);
      }
    }
    return out;
  }();
  return tables[std::size_t(t)];
}

/// What one element adds to the metrics, in the order it is added: per
/// local edge the dual-face normal (oriented local a -> b) and the signed
/// volume term of its two triangles; then per face and face vertex the
/// vertex's element-boundary volume term.
struct ElementTerms {
  std::array<Vec3, kMaxEdges> normal;
  std::array<real_t, kMaxEdges> edge_volume;
  std::array<real_t, kMaxFaceVertices> face_volume;
};

void element_terms(const UnstructuredMesh& m, const Element& e,
                   ElementTerms& out) {
  const int nn = e.num_nodes();
  auto point = [&](int local) -> const Vec3& {
    return m.points[std::size_t(e.nodes[std::size_t(local)])];
  };

  Vec3 cc{};
  for (int k = 0; k < nn; ++k) cc += point(k);
  cc = cc / real_t(nn);

  const auto faces = element_faces(e.type);
  std::array<Vec3, kMaxFaces> fcenters;
  for (std::size_t f = 0; f < faces.size(); ++f) {
    Vec3 fc{};
    for (int k = 0; k < faces[f].n; ++k) fc += point(faces[f].v[std::size_t(k)]);
    fcenters[f] = fc / real_t(faces[f].n);
  }

  // Dual faces: for each element edge, the quad (edge mid, fc1, cc, fc2)
  // where f1, f2 are the two element faces containing the edge, split into
  // two triangles and oriented a -> b. The same two area vectors give the
  // orientation and, through the divergence theorem, the volume term: the
  // dual face bounds a's subvolume (outward = a->b) and b's (outward =
  // b->a).
  const auto edges = element_edges(e.type);
  const EdgeFaces& ef = edge_faces(e.type);
  for (std::size_t le = 0; le < edges.size(); ++le) {
    const Vec3& pa = point(edges[le][0]);
    const Vec3& pb = point(edges[le][1]);
    const Vec3 emid = 0.5 * (pa + pb);
    const Vec3& fc1 = fcenters[std::size_t(ef.faces[le][0])];
    const Vec3& fc2 = fcenters[std::size_t(ef.faces[le][1])];
    const Vec3 t1 = tri_area(emid, fc1, cc);
    const Vec3 t2 = tri_area(emid, cc, fc2);
    const Vec3 n = t1 + t2;
    const real_t sign = dot(n, pb - pa) < 0 ? -1.0 : 1.0;
    out.normal[le] = sign < 0 ? -1.0 * n : n;
    out.edge_volume[le] =
        sign * (volume_term(emid, fc1, cc, t1) + volume_term(emid, cc, fc2, t2));
  }

  // Element-boundary pieces of the dual volumes: for every face and every
  // vertex on it, the quad (vertex, mid(to next), face center, mid(to
  // prev)), oriented outward like the face. Internal faces appear twice
  // with opposite orientations and cancel in the *closure*, but their
  // volume terms belong to this element's subvolumes and must be added.
  std::size_t slot = 0;
  for (std::size_t f = 0; f < faces.size(); ++f) {
    const LocalFace& lf = faces[f];
    for (int k = 0; k < lf.n; ++k) {
      const int kprev = (k + lf.n - 1) % lf.n;
      const int knext = (k + 1) % lf.n;
      const Vec3& pa = point(lf.v[std::size_t(k)]);
      const Vec3 mnext = 0.5 * (pa + point(lf.v[std::size_t(knext)]));
      const Vec3 mprev = 0.5 * (pa + point(lf.v[std::size_t(kprev)]));
      const Vec3& fc = fcenters[f];
      out.face_volume[slot++] =
          tri_volume_term(pa, mnext, fc) + tri_volume_term(pa, fc, mprev);
    }
  }
}

/// Min-heap of node ids keyed by their tentative distance, with
/// decrease-key, so a node sits in the heap at most once. Which of two
/// equal keys pops first does not matter: a popped distance is final
/// (rounding is monotone, so d + len >= d), and every node ends as the
/// minimum over its neighbours of (final distance + edge length), a
/// value independent of the visiting order.
class NodeHeap {
 public:
  explicit NodeHeap(const std::vector<real_t>& key)
      : key_(key), pos_(key.size(), kInvalidIndex) {}

  bool empty() const { return heap_.empty(); }

  /// Inserts v, or restores the heap after key[v] decreased.
  void push_or_decrease(index_t v) {
    index_t i = pos_[std::size_t(v)];
    if (i == kInvalidIndex) {
      i = index_t(heap_.size());
      heap_.push_back(v);
    }
    sift_up(std::size_t(i), v);
  }

  index_t pop() {
    const index_t top = heap_.front();
    pos_[std::size_t(top)] = kInvalidIndex;
    const index_t last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(last);
    return top;
  }

 private:
  void sift_up(std::size_t i, index_t v) {
    const real_t k = key_[std::size_t(v)];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      const index_t p = heap_[parent];
      if (!(k < key_[std::size_t(p)])) break;
      heap_[i] = p;
      pos_[std::size_t(p)] = index_t(i);
      i = parent;
    }
    heap_[i] = v;
    pos_[std::size_t(v)] = index_t(i);
  }
  void sift_down(index_t v) {
    const real_t k = key_[std::size_t(v)];
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    while (true) {
      std::size_t c = 2 * i + 1;
      if (c >= n) break;
      if (c + 1 < n && key_[std::size_t(heap_[c + 1])] < key_[std::size_t(heap_[c])])
        ++c;
      if (!(key_[std::size_t(heap_[c])] < k)) break;
      heap_[i] = heap_[c];
      pos_[std::size_t(heap_[i])] = index_t(i);
      i = c;
    }
    heap_[i] = v;
    pos_[std::size_t(v)] = index_t(i);
  }

  const std::vector<real_t>& key_;
  std::vector<index_t> pos_;
  std::vector<index_t> heap_;
};

/// Elements per pipelined block (each buffer of terms is about 1.2 MB)
/// and per pooled compute chunk.
constexpr std::size_t kElementBlock = 2048;
constexpr std::size_t kElementGrain = 128;

}  // namespace

DualMetrics compute_dual_metrics(const UnstructuredMesh& m) {
  DualMetrics dm;
  const index_t np = m.num_points();
  const std::size_t ne = m.elements.size();
  dm.node_volume.assign(std::size_t(np), 0.0);
  dm.boundary_normal.assign(std::size_t(np), {});

  // Edge ids in first-seen order over the element walk. A hex-dominant
  // mesh has about 3.4 edges per node, a tetrahedral one about 7; the
  // storage grows (see below) when the estimate plus one block of slack
  // is short.
  const std::size_t expected =
      std::size_t(np) * 4 + std::min(ne, kElementBlock) * kMaxEdges;
  EdgeIndex edge_id(np, expected);
  dm.edges.reserve(expected);
  dm.edge_normal.reserve(expected);

  // Numbers the edges of elements [b0, b1) and adds their dual-face
  // normals, in element order, then local-edge order.
  auto add_normals = [&](const ElementTerms* terms, std::size_t b0,
                         std::size_t b1) {
    for (std::size_t ei = b0; ei < b1; ++ei) {
      const Element& e = m.elements[ei];
      const ElementTerms& t = terms[ei - b0];
      const auto edges = element_edges(e.type);
      for (std::size_t le = 0; le < edges.size(); ++le) {
        const index_t a = e.nodes[std::size_t(edges[le][0])];
        const index_t b = e.nodes[std::size_t(edges[le][1])];
        const auto [eid, inserted] = edge_id.insert(a, b);
        if (inserted) {
          dm.edges.emplace_back(std::min(a, b), std::max(a, b));
          dm.edge_normal.push_back({});
        }
        // dm.edges stores (min,max); accumulate in that orientation.
        if (a < b)
          dm.edge_normal[std::size_t(eid)] += t.normal[le];
        else
          dm.edge_normal[std::size_t(eid)] -= t.normal[le];
      }
    }
  };
  // Adds the node volume terms of elements [b0, b1): per element its
  // local edges' terms, then its face vertices' terms.
  auto add_volumes = [&](const ElementTerms* terms, std::size_t b0,
                         std::size_t b1) {
    real_t* const vol = dm.node_volume.data();
    for (std::size_t ei = b0; ei < b1; ++ei) {
      const Element& e = m.elements[ei];
      const ElementTerms& t = terms[ei - b0];
      const auto edges = element_edges(e.type);
      for (std::size_t le = 0; le < edges.size(); ++le) {
        vol[e.nodes[std::size_t(edges[le][0])]] += t.edge_volume[le];
        vol[e.nodes[std::size_t(edges[le][1])]] -= t.edge_volume[le];
      }
      std::size_t slot = 0;
      for (const LocalFace& lf : element_faces(e.type))
        for (int k = 0; k < lf.n; ++k)
          vol[e.nodes[std::size_t(lf.v[std::size_t(k)])]] +=
              t.face_volume[slot++];
    }
  };

  // Compute in parallel, add in order. The elements go in blocks through
  // two buffers of terms: while the pool computes block k, one thread
  // numbers block k-1's edges and adds its normals and another adds its
  // node volumes. Each array thus receives every addition in the order a
  // serial walk makes it, whatever the pool size.
  smp::ThreadPool& pool = smp::ThreadPool::global();
  const std::size_t nblocks = (ne + kElementBlock - 1) / kElementBlock;
  std::array<std::vector<ElementTerms>, 2> terms;
  for (std::size_t k = 0; k < std::min<std::size_t>(nblocks, 2); ++k)
    terms[k].resize(std::min(ne, kElementBlock));
  for (std::size_t k = 0; k <= nblocks; ++k) {
    // Adds block k-1 = [a0, c0), computes block k = [c0, c1).
    const std::size_t a0 = k > 0 ? (k - 1) * kElementBlock : 0;
    const std::size_t c0 = std::min(ne, k * kElementBlock);
    const std::size_t c1 = std::min(ne, c0 + kElementBlock);
    // Room for every edge block k-1 could add, made here: the pool
    // threads then never allocate (a worker's allocation lands in its own
    // malloc arena, which later allocations of the solver do not reuse).
    const std::size_t most = dm.edges.size() + kMaxEdges * (c0 - a0);
    edge_id.reserve(most);
    if (most > dm.edges.capacity()) {
      dm.edges.reserve(std::max(most, 2 * dm.edges.capacity()));
      dm.edge_normal.reserve(dm.edges.capacity());
    }
    const std::size_t compute_chunks =
        (c1 - c0 + kElementGrain - 1) / kElementGrain;
    pool.parallel_for(0, 2 + compute_chunks, 1,
                      [&](std::size_t lb, std::size_t le, int) {
      for (std::size_t c = lb; c < le; ++c) {
        if (c < 2) {
          if (k == 0) continue;
          const ElementTerms* t = terms[(k - 1) % 2].data();
          if (c == 0)
            add_normals(t, a0, c0);
          else
            add_volumes(t, a0, c0);
          continue;
        }
        const std::size_t e0 = c0 + (c - 2) * kElementGrain;
        const std::size_t e1 = std::min(c1, e0 + kElementGrain);
        for (std::size_t ei = e0; ei < e1; ++ei)
          element_terms(m, m.elements[ei], terms[k % 2][ei - c0]);
      }
    });
  }

  // Boundary closure: same per-vertex quads, from the tagged boundary faces.
  for (const BoundaryFace& bf : m.boundary) {
    Vec3 fc{};
    for (int k = 0; k < bf.n; ++k) fc += m.points[std::size_t(bf.nodes[std::size_t(k)])];
    fc = fc / real_t(bf.n);
    for (int k = 0; k < bf.n; ++k) {
      const int kprev = (k + bf.n - 1) % bf.n;
      const int knext = (k + 1) % bf.n;
      const index_t a = bf.nodes[std::size_t(k)];
      const Vec3& pa = m.points[std::size_t(a)];
      const Vec3 mnext = 0.5 * (pa + m.points[std::size_t(bf.nodes[std::size_t(knext)])]);
      const Vec3 mprev = 0.5 * (pa + m.points[std::size_t(bf.nodes[std::size_t(kprev)])]);
      const Vec3 n = tri_area(pa, mnext, fc) + tri_area(pa, fc, mprev);
      dm.boundary_normal[std::size_t(a)][std::size_t(bf.tag)] += n;
    }
  }

  // Approximate wall distance: multi-source Dijkstra from wall nodes along
  // mesh edges, each node's neighbours visited in edge order. Adequate for
  // the turbulence source terms of a benchmark.
  dm.wall_distance.assign(std::size_t(np),
                          std::numeric_limits<real_t>::infinity());
  NodeHeap heap(dm.wall_distance);
  for (index_t v = 0; v < np; ++v) {
    const Vec3& wn = dm.boundary_normal[std::size_t(v)][std::size_t(BoundaryTag::Wall)];
    if (dot(wn, wn) > 0) {
      dm.wall_distance[std::size_t(v)] = 0.0;
      heap.push_or_decrease(v);
    }
  }
  if (!heap.empty()) {
    const FlatLists<index_t> adj = edge_incidence(np, dm.edges);
    std::vector<real_t> len(dm.edges.size());
    pool.parallel_for(0, len.size(), 4096,
                      [&](std::size_t lb, std::size_t le, int) {
                        for (std::size_t e = lb; e < le; ++e)
                          len[e] = distance(
                              m.points[std::size_t(dm.edges[e].first)],
                              m.points[std::size_t(dm.edges[e].second)]);
                      });
    while (!heap.empty()) {
      const index_t v = heap.pop();
      const real_t d = dm.wall_distance[std::size_t(v)];
      for (const index_t eid : adj[std::size_t(v)]) {
        const auto [a, b] = dm.edges[std::size_t(eid)];
        const index_t u = a == v ? b : a;
        const real_t nd = d + len[std::size_t(eid)];
        if (nd < dm.wall_distance[std::size_t(u)]) {
          dm.wall_distance[std::size_t(u)] = nd;
          heap.push_or_decrease(u);
        }
      }
    }
  }
  // No wall at all (e.g. pure farfield test boxes): distance = large.
  for (real_t& d : dm.wall_distance)
    if (!std::isfinite(d)) d = 1e10;

  return dm;
}

std::vector<real_t> DualMetrics::edge_coupling(const UnstructuredMesh& m) const {
  std::vector<real_t> w(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto [a, b] = edges[e];
    const real_t len =
        distance(m.points[std::size_t(a)], m.points[std::size_t(b)]);
    w[e] = len > 0 ? norm(edge_normal[e]) / len : 0.0;
  }
  return w;
}

real_t DualMetrics::max_anisotropy(const UnstructuredMesh& m) const {
  const std::vector<real_t> w = edge_coupling(m);
  std::vector<real_t> strongest(std::size_t(m.num_points()), 0.0);
  std::vector<real_t> weakest(std::size_t(m.num_points()),
                              std::numeric_limits<real_t>::infinity());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto [a, b] = edges[e];
    strongest[std::size_t(a)] = std::max(strongest[std::size_t(a)], w[e]);
    strongest[std::size_t(b)] = std::max(strongest[std::size_t(b)], w[e]);
    weakest[std::size_t(a)] = std::min(weakest[std::size_t(a)], w[e]);
    weakest[std::size_t(b)] = std::min(weakest[std::size_t(b)], w[e]);
  }
  real_t ratio = 1.0;
  for (index_t v = 0; v < m.num_points(); ++v) {
    if (weakest[std::size_t(v)] > 0 &&
        std::isfinite(weakest[std::size_t(v)]))
      ratio = std::max(ratio, strongest[std::size_t(v)] / weakest[std::size_t(v)]);
  }
  return ratio;
}

real_t metric_closure_error(const UnstructuredMesh& m, const DualMetrics& dm) {
  std::vector<geom::Vec3> residual(std::size_t(m.num_points()));
  for (std::size_t e = 0; e < dm.edges.size(); ++e) {
    const auto [a, b] = dm.edges[e];
    residual[std::size_t(a)] += dm.edge_normal[e];
    residual[std::size_t(b)] -= dm.edge_normal[e];
  }
  for (index_t v = 0; v < m.num_points(); ++v)
    for (const geom::Vec3& bn : dm.boundary_normal[std::size_t(v)])
      residual[std::size_t(v)] += bn;
  real_t err = 0;
  for (const geom::Vec3& r : residual) err = std::max(err, norm(r));
  return err;
}

}  // namespace columbia::mesh
