// Bit-identity of NSU3D level construction.
//
// 64-bit FNV-1a fingerprints over the raw bytes of everything
// `mesh::compute_dual_metrics` and `nsu3d::build_levels` produce: every
// DualMetrics field, and per level one hash of the topology (edge
// endpoints and color spans, lines, the coarse map, the incidence and
// line-edge tables) and one of the geometry (normals, lengths, per-edge
// precomputes, volumes, centers, closures, wall distances). The incidence
// and line-edge tables are hashed as the (edge id, sign) sequence of each
// node and of each line, so the container that holds them does not enter
// the hash. A change to any accumulation order — element, local edge,
// face vertex; first-seen edge numbering; Dijkstra's neighbour order; the
// coarse-edge numbering; the coloring — moves at least one of them.
//
// Every case runs at pool sizes 1 and 4: construction runs pooled passes,
// and their result must not depend on the thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "mesh/builders.hpp"
#include "mesh/dual_metrics.hpp"
#include "nsu3d/level.hpp"
#include "smp/pool.hpp"

namespace columbia {
namespace {

class Fnv1a {
 public:
  void add_bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  template <class T>
  void add(const T& v) {
    add_bytes(&v, sizeof(T));
  }
  void add(const geom::Vec3& v) {
    add(v.x);
    add(v.y);
    add(v.z);
  }
  template <class T>
  void add_all(const std::vector<T>& v) {
    add(v.size());
    for (const T& x : v) add(x);
  }
  void add_all(const std::vector<std::pair<index_t, index_t>>& v) {
    add(v.size());
    for (const auto& [a, b] : v) {
      add(a);
      add(b);
    }
  }
  void add_all(const std::vector<std::array<geom::Vec3, 3>>& v) {
    add(v.size());
    for (const auto& t : v)
      for (const geom::Vec3& x : t) add(x);
  }
  /// A list of (edge id, sign) lists: each list's length, then its pairs.
  template <class Lists>
  void add_signed_lists(const Lists& lists) {
    add(std::size_t(lists.size()));
    for (std::size_t i = 0; i < std::size_t(lists.size()); ++i) {
      const auto& list = lists[i];
      add(std::size_t(list.size()));
      for (const auto& [eid, sgn] : list) {
        add(eid);
        add(sgn);
      }
    }
  }
  /// Per-node incident edge ids, each hashed with its side sign (+1 when
  /// the node is the edge's first endpoint, else -1): the same (edge id,
  /// sign) sequence add_signed_lists hashes for the line-edge table.
  void add_incidence(const FlatLists<index_t>& inc,
                     const std::vector<std::pair<index_t, index_t>>& edges) {
    add(std::size_t(inc.size()));
    for (std::size_t v = 0; v < inc.size(); ++v) {
      add(std::size_t(inc[v].size()));
      for (const index_t eid : inc[v]) {
        add(eid);
        add(real_t(std::size_t(edges[std::size_t(eid)].first) == v ? 1.0
                                                                   : -1.0));
      }
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

struct ThreadsGuard {
  explicit ThreadsGuard(int n) { smp::set_global_threads(n); }
  ~ThreadsGuard() { smp::set_global_threads(1); }
};

std::uint64_t dual_hash(const mesh::DualMetrics& dm) {
  Fnv1a h;
  h.add_all(dm.edges);
  h.add_all(dm.edge_normal);
  h.add_all(dm.node_volume);
  h.add_all(dm.boundary_normal);
  h.add_all(dm.wall_distance);
  return h.value();
}

std::uint64_t topology_hash(const nsu3d::Level& l) {
  Fnv1a h;
  h.add(l.num_nodes);
  h.add_all(l.edges);
  h.add_all(l.color_offsets);
  h.add(l.lines.lines.size());
  for (const auto& line : l.lines.lines) h.add_all(line);
  h.add_all(l.to_coarse);
  h.add_incidence(l.incident, l.edges);
  h.add_signed_lists(l.line_edges);
  return h.value();
}

std::uint64_t geometry_hash(const nsu3d::Level& l) {
  Fnv1a h;
  h.add_all(l.edge_length);
  h.add_all(l.edge_area);
  h.add_all(l.edge_eps2);
  for (const auto* v : {&l.edge_nx, &l.edge_ny, &l.edge_nz, &l.edge_ux,
                        &l.edge_uy, &l.edge_uz, &l.edge_dx, &l.edge_dy,
                        &l.edge_dz, &l.edge_geo})
    h.add_all(*v);
  h.add_all(l.node_volume);
  h.add_all(l.inv_volume);
  h.add_all(l.node_center);
  h.add_all(l.boundary_normal);
  h.add_all(l.wall_distance);
  return h.value();
}

struct Fingerprint {
  std::uint64_t dual = 0;
  std::vector<std::uint64_t> topology, geometry;
};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llxull",
                static_cast<unsigned long long>(v));
  return buf;
}

/// The fingerprint as a braced initializer, for a failure message.
std::string paste(const Fingerprint& f) {
  std::string s = "{";
  s += hex(f.dual);
  s += ", {";
  for (std::size_t l = 0; l < f.topology.size(); ++l) {
    if (l) s += ", ";
    s += hex(f.topology[l]);
  }
  s += "}, {";
  for (std::size_t l = 0; l < f.geometry.size(); ++l) {
    if (l) s += ", ";
    s += hex(f.geometry[l]);
  }
  s += "}}";
  return s;
}

/// Builds the metrics and the levels at pool sizes 1 and 4 and checks
/// both against the recorded fingerprint.
void expect_fingerprint(const mesh::UnstructuredMesh& m, int num_levels,
                        const Fingerprint& want) {
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("pool size " + std::to_string(threads));
    ThreadsGuard guard(threads);
    Fingerprint got;
    got.dual = dual_hash(mesh::compute_dual_metrics(m));
    nsu3d::LevelOptions lo;
    lo.num_levels = num_levels;
    for (const nsu3d::Level& l : nsu3d::build_levels(m, lo)) {
      got.topology.push_back(topology_hash(l));
      got.geometry.push_back(geometry_hash(l));
    }
    EXPECT_EQ(got.dual, want.dual) << "DualMetrics: " << hex(got.dual);
    ASSERT_EQ(got.topology.size(), want.topology.size())
        << "level count; whole fingerprint: " << paste(got);
    for (std::size_t l = 0; l < got.topology.size(); ++l) {
      EXPECT_EQ(got.topology[l], want.topology[l])
          << "level " << l << " topology: " << hex(got.topology[l]);
      EXPECT_EQ(got.geometry[l], want.geometry[l])
          << "level " << l << " geometry: " << hex(got.geometry[l]);
    }
  }
}

mesh::UnstructuredMesh wing(int n_wrap, int n_span, int n_normal) {
  mesh::WingMeshSpec spec;
  spec.n_wrap = n_wrap;
  spec.n_span = n_span;
  spec.n_normal = n_normal;
  spec.wall_spacing = 1e-4;
  return mesh::make_wing_mesh(spec);
}

/// Twelve nodes, one element of each type: a hex, a pyramid on its top
/// face, a prism on its +x face and a tet on the prism's far triangle.
/// Points are jittered so no two dual faces are mirror images. The
/// boundary is every face used by one element only: the hex's bottom is
/// a wall, the tet's faces symmetry, the rest farfield.
mesh::UnstructuredMesh four_element_types() {
  using mesh::ElementType;
  mesh::UnstructuredMesh m;
  const std::array<geom::Vec3, 12> p{{{0, 0, 0},
                                      {1, 0, 0},
                                      {1, 1, 0},
                                      {0, 1, 0},
                                      {0, 0, 1},
                                      {1, 0, 1},
                                      {1, 1, 1},
                                      {0, 1, 1},
                                      {0.5, 0.5, 1.6},
                                      {2, 0, 0},
                                      {2, 1, 0},
                                      {1.3, 1.7, 0.3}}};
  for (std::size_t i = 0; i < p.size(); ++i)
    m.points.push_back(p[i] + 0.01 * geom::Vec3{real_t(int(i * 7 % 5) - 2),
                                                real_t(int(i * 3 % 7) - 3),
                                                real_t(int(i * 5 % 3) - 1)});
  m.elements.push_back({ElementType::Hex, {0, 1, 2, 3, 4, 5, 6, 7}});
  m.elements.push_back({ElementType::Pyramid, {4, 5, 6, 7, 8}});
  m.elements.push_back({ElementType::Prism, {1, 5, 9, 2, 6, 10}});
  m.elements.push_back({ElementType::Tet, {2, 6, 10, 11}});

  std::map<std::vector<index_t>, int> uses;
  auto key = [](const mesh::Element& e, const mesh::LocalFace& f) {
    std::vector<index_t> k;
    for (int j = 0; j < f.n; ++j)
      k.push_back(e.nodes[std::size_t(f.v[std::size_t(j)])]);
    std::sort(k.begin(), k.end());
    return k;
  };
  for (const mesh::Element& e : m.elements)
    for (const mesh::LocalFace& f : mesh::element_faces(e.type))
      ++uses[key(e, f)];
  for (std::size_t ei = 0; ei < m.elements.size(); ++ei) {
    const mesh::Element& e = m.elements[ei];
    for (std::size_t fi = 0; fi < mesh::element_faces(e.type).size(); ++fi) {
      const mesh::LocalFace& f = mesh::element_faces(e.type)[fi];
      if (uses[key(e, f)] != 1) continue;
      mesh::BoundaryFace bf{};
      bf.n = f.n;
      for (int j = 0; j < f.n; ++j)
        bf.nodes[std::size_t(j)] = e.nodes[std::size_t(f.v[std::size_t(j)])];
      bf.tag = e.type == ElementType::Tet ? mesh::BoundaryTag::Symmetry
               : (e.type == ElementType::Hex && fi == 0)
                   ? mesh::BoundaryTag::Wall
                   : mesh::BoundaryTag::Farfield;
      m.boundary.push_back(bf);
    }
  }
  return m;
}

TEST(LevelFingerprint, FourElementTypesMesh) {
  const mesh::UnstructuredMesh m = four_element_types();
  const std::array<index_t, 4> counts = m.element_counts();
  for (const index_t c : counts) ASSERT_EQ(c, 1);
  for (index_t e = 0; e < m.num_elements(); ++e)
    ASSERT_GT(m.element_volume(e), 0) << "element " << e;
  ASSERT_EQ(m.boundary.size(), 14u);
  expect_fingerprint(m, 4, {0x3c942d0f5c308334ull,
                        {0x537c84a7132d8b50ull, 0x854b73e159d48267ull},
                        {0xd8a2db392dfa18ffull, 0xebea7ccbd4916c54ull}});
}

TEST(LevelFingerprint, TetrahedralizedBox) {
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(
      6, 5, 4, {0, 0, 0}, {1.5, 1.0, 0.8}, true, mesh::BoundaryTag::Wall);
  expect_fingerprint(m, 4, {0xbdf7242fb9c2b696ull,
                        {0x0d5bc43ebfa90d39ull, 0x88e09449cfbcfbddull,
                         0xc3c1b10817aca926ull},
                        {0x03f9c6e12684c6f5ull, 0x997848cea22a07f6ull,
                         0x397b99b910f4db88ull}});
}

TEST(LevelFingerprint, Shm4WingMesh) {
  expect_fingerprint(wing(48, 8, 20), 4,
                     {0xb1515c26ffa70ff9ull,
                      {0xfde2a255ec4c2589ull, 0x9d6292ae34f99984ull,
                       0xb9edcd6c0badd4d2ull, 0x634e59813c2065ceull},
                      {0x762e55f3a7a09f34ull, 0x3f49efe6d1d352b8ull,
                       0x283a17ecdd636123ull, 0x605e75f0139a0ad2ull}});
}

TEST(LevelFingerprint, WingMesh) {
  expect_fingerprint(wing(64, 12, 24), 4,
                     {0xf3f419cf3f719ac4ull,
                      {0x7ca391017fa18d24ull, 0xa1c5135268185980ull,
                       0xd915ef3b85454cb6ull, 0xf83776b41ae31a44ull},
                      {0x2bc8dcd8037dc949ull, 0xc7944e4c29dcc8cdull,
                       0x2433cd926431bbbfull, 0xe0e45cfc3c127fb5ull}});
}

}  // namespace
}  // namespace columbia
