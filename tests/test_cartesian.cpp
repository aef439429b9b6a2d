#include <gtest/gtest.h>
#include "sfc/sfc_partition.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "cartesian/adaptation.hpp"
#include "cartesian/cart_mesh.hpp"
#include "cartesian/clip.hpp"
#include "cartesian/coarsen.hpp"
#include "geom/components.hpp"
#include "support/random.hpp"

namespace columbia::cartesian {
namespace {

using geom::Aabb;
using geom::Vec3;

Aabb unit_domain() {
  Aabb d;
  d.expand({-1, -1, -1});
  d.expand({1, 1, 1});
  return d;
}

TEST(Inside, SphereClassification) {
  const auto sphere = geom::make_sphere({0, 0, 0}, 0.5, 24, 48);
  const InsideClassifier cls(sphere);
  EXPECT_TRUE(cls.inside({0, 0, 0}));
  EXPECT_TRUE(cls.inside({0.3, 0.2, 0.1}));
  EXPECT_FALSE(cls.inside({0.9, 0, 0}));
  EXPECT_FALSE(cls.inside({0, 0, 0.7}));
}

TEST(Inside, FluidFractionLimits) {
  const auto sphere = geom::make_sphere({0, 0, 0}, 0.5, 24, 48);
  const InsideClassifier cls(sphere);
  Aabb solid_box;
  solid_box.expand({-0.1, -0.1, -0.1});
  solid_box.expand({0.1, 0.1, 0.1});
  EXPECT_DOUBLE_EQ(cls.fluid_fraction(solid_box, 3), 0.0);
  Aabb fluid_box;
  fluid_box.expand({0.8, 0.8, 0.8});
  fluid_box.expand({0.95, 0.95, 0.95});
  EXPECT_DOUBLE_EQ(cls.fluid_fraction(fluid_box, 3), 1.0);
}

TEST(Clip, TriangleFullyInside) {
  Aabb box;
  box.expand({0, 0, 0});
  box.expand({1, 1, 1});
  const auto poly = clip_triangle_to_box({0.1, 0.1, 0.5}, {0.9, 0.1, 0.5},
                                         {0.1, 0.9, 0.5}, box);
  EXPECT_EQ(poly.size(), 3u);
  const Vec3 area = polygon_area_vector(poly);
  EXPECT_NEAR(norm(area), 0.32, 1e-12);
  EXPECT_NEAR(area.z, 0.32, 1e-12);
}

TEST(Clip, TriangleHalfOutside) {
  Aabb box;
  box.expand({0, 0, 0});
  box.expand({1, 1, 1});
  // Plane z=0.5 triangle poking out of the +x face: clipped area < full.
  const auto full = polygon_area_vector(clip_triangle_to_box(
      {0.0, 0.2, 0.5}, {0.8, 0.2, 0.5}, {0.0, 0.8, 0.5}, box));
  const auto clipped = polygon_area_vector(clip_triangle_to_box(
      {0.0, 0.2, 0.5}, {1.6, 0.2, 0.5}, {0.0, 0.8, 0.5}, box));
  EXPECT_GT(norm(clipped), 0.0);
  EXPECT_LT(norm(clipped), 2 * norm(full));  // sanity: finite and clipped
}

TEST(Clip, NoOverlapEmpty) {
  Aabb box;
  box.expand({0, 0, 0});
  box.expand({1, 1, 1});
  const auto poly =
      clip_triangle_to_box({5, 5, 5}, {6, 5, 5}, {5, 6, 5}, box);
  EXPECT_LT(polygon_area_vector(poly).x, 1e-12);
  EXPECT_TRUE(poly.size() < 3);
}

TEST(UniformMesh, CountsAndFaces) {
  const CartMesh m = build_uniform_mesh(unit_domain(), 4);
  EXPECT_EQ(m.num_cells(), 64);
  // Interior faces: 3 * 4^2 * 3 = 144; boundary: 6 * 16 = 96.
  EXPECT_EQ(m.faces.size(), 144u);
  EXPECT_EQ(m.boundary_faces.size(), 96u);
  EXPECT_NEAR(m.total_fluid_volume(), 8.0, 1e-12);
}

TEST(UniformMesh, FaceAreasUniform) {
  const CartMesh m = build_uniform_mesh(unit_domain(), 4);
  for (const CartFace& f : m.faces) EXPECT_NEAR(f.area, 0.25, 1e-12);
}

TEST(CartMesh, SphereRefinementProducesCutCells) {
  const auto sphere = geom::make_sphere({0, 0, 0}, 0.4, 16, 32);
  CartMeshOptions opt;
  opt.base_n = 8;
  opt.max_level = 2;
  const CartMesh m = build_cart_mesh(sphere, unit_domain(), opt);
  EXPECT_GT(m.num_cells(), 500);
  EXPECT_GT(m.num_cut_cells(), 50);
  // Solid interior removed: fluid volume < domain volume - most of sphere.
  const real_t sphere_vol = 4.0 / 3.0 * std::numbers::pi * 0.4 * 0.4 * 0.4;
  EXPECT_LT(m.total_fluid_volume(), 8.0 - 0.5 * sphere_vol);
  EXPECT_GT(m.total_fluid_volume(), 8.0 - 1.5 * sphere_vol);
}

TEST(CartMesh, CutCellsCarryWallArea) {
  const auto sphere = geom::make_sphere({0, 0, 0}, 0.4, 16, 32);
  CartMeshOptions opt;
  opt.base_n = 8;
  opt.max_level = 2;
  const CartMesh m = build_cart_mesh(sphere, unit_domain(), opt);
  // Total embedded area ~ sphere area; wall vectors sum to ~0 (closed).
  Vec3 sum{};
  real_t total = 0;
  for (const CartCell& c : m.cells) {
    if (!c.cut) continue;
    sum += c.wall_area;
    total += norm(c.wall_area);
  }
  const real_t sphere_area = 4 * std::numbers::pi * 0.4 * 0.4;
  EXPECT_NEAR(total, sphere_area, 0.25 * sphere_area);
  EXPECT_LT(norm(sum), 0.05 * sphere_area);
}

TEST(CartMesh, TwoToOneBalance) {
  const auto sphere = geom::make_sphere({0, 0, 0}, 0.4, 16, 32);
  CartMeshOptions opt;
  opt.base_n = 4;
  opt.max_level = 3;
  const CartMesh m = build_cart_mesh(sphere, unit_domain(), opt);
  // Across every face the level difference is at most 1.
  for (const CartFace& f : m.faces) {
    if (f.right == kInvalidIndex) continue;
    const int dl = int(m.cells[std::size_t(f.left)].level) -
                   int(m.cells[std::size_t(f.right)].level);
    EXPECT_LE(std::abs(dl), 1);
  }
}

TEST(CartMesh, SfcOrderingSorted) {
  const auto sphere = geom::make_sphere({0, 0, 0}, 0.4, 12, 24);
  CartMeshOptions opt;
  opt.base_n = 8;
  opt.max_level = 1;
  const CartMesh m = build_cart_mesh(sphere, unit_domain(), opt);
  for (std::size_t i = 1; i < m.sfc_keys.size(); ++i)
    EXPECT_LE(m.sfc_keys[i - 1], m.sfc_keys[i]);
}

TEST(CartMesh, FaceAreasConsistentAcrossLevels) {
  // Sum of face areas between level-L and level-L+1 cells uses the fine
  // cell's face size; conservation is checked via total flux closure in
  // the solver tests. Here: every face has positive area and valid ids.
  const auto sphere = geom::make_sphere({0, 0, 0}, 0.4, 12, 24);
  CartMeshOptions opt;
  opt.base_n = 4;
  opt.max_level = 2;
  const CartMesh m = build_cart_mesh(sphere, unit_domain(), opt);
  for (const CartFace& f : m.faces) {
    EXPECT_GT(f.area, 0.0);
    EXPECT_GE(f.left, 0);
    EXPECT_LT(f.left, m.num_cells());
    EXPECT_GE(f.right, 0);
    EXPECT_LT(f.right, m.num_cells());
  }
}

TEST(Coarsen, UniformMeshFullOctets) {
  const CartMesh m = build_uniform_mesh(unit_domain(), 8, SfcKind::PeanoHilbert, 2);
  const CoarsenResult r = coarsen_sfc(m);
  EXPECT_EQ(r.coarse.num_cells(), 64);  // 8^3 -> 4^3
  EXPECT_NEAR(r.coarsening_ratio(), 8.0, 1e-12);
  // Every fine cell mapped.
  for (index_t c : r.fine_to_coarse) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, r.coarse.num_cells());
  }
  // Volume preserved.
  EXPECT_NEAR(r.coarse.total_fluid_volume(), m.total_fluid_volume(), 1e-10);
}

TEST(Coarsen, RatioExceedsSevenOnAdaptedMesh) {
  // The paper's claim (Sec. V): coarsening ratios in excess of 7 on
  // typical adapted examples. That regime needs the adapted region to be a
  // small fraction of the cell count (the paper's meshes have 25M cells);
  // a 64^3 base grid (~270k cells) with a small sphere reproduces it.
  const auto sphere = geom::make_sphere({0, 0, 0}, 0.15, 12, 24);
  CartMeshOptions opt;
  opt.base_n = 64;
  opt.max_level = 2;
  const CartMesh m = build_cart_mesh(sphere, unit_domain(), opt);
  const CoarsenResult r = coarsen_sfc(m);
  EXPECT_GT(r.coarsening_ratio(), 7.0);
}

TEST(Coarsen, CoarseMeshImmediatelyRecoarsenable) {
  const CartMesh m = build_uniform_mesh(unit_domain(), 8, SfcKind::PeanoHilbert, 3);
  const CoarsenResult r1 = coarsen_sfc(m);
  const CoarsenResult r2 = coarsen_sfc(r1.coarse);
  EXPECT_EQ(r2.coarse.num_cells(), 8);  // 8^3 -> 4^3 -> 2^3
}

TEST(Coarsen, HierarchyCoarsensBelowBaseGrid) {
  const CartMesh m = build_uniform_mesh(unit_domain(), 8, SfcKind::PeanoHilbert, 2);
  const CartHierarchy h = build_hierarchy(m, 10);
  // 8^3 -> 4^3 -> 2^3 -> 1: coarsening continues below the base grid
  // (negative levels) until a single cell remains.
  EXPECT_EQ(h.levels.size(), 4u);
  EXPECT_EQ(h.levels.back().num_cells(), 1);
  EXPECT_NEAR(h.levels.back().total_fluid_volume(), 8.0, 1e-10);
}

TEST(PartitionCells, BalancedAndContiguous) {
  const auto sphere = geom::make_sphere({0, 0, 0}, 0.4, 16, 32);
  CartMeshOptions opt;
  opt.base_n = 8;
  opt.max_level = 2;
  const CartMesh m = build_cart_mesh(sphere, unit_domain(), opt);
  const auto part = partition_cells(m, 16);
  std::vector<real_t> w(m.cells.size());
  for (std::size_t i = 0; i < m.cells.size(); ++i)
    w[i] = m.cells[i].cut ? 2.1 : 1.0;
  EXPECT_LT(columbia::sfc::balance_factor(part, w, 16), 1.25);
  // SFC-ordered cells have non-decreasing part ids (contiguous segments).
  for (std::size_t i = 1; i < part.size(); ++i)
    EXPECT_GE(part[i], part[i - 1]);
}

TEST(PartitionCells, SurfaceToVolumeTracksIdealCube) {
  const CartMesh m = build_uniform_mesh(unit_domain(), 16, SfcKind::PeanoHilbert);
  const auto part = partition_cells(m, 8);
  const auto st = partition_surface_stats(m, part, 8);
  // Paper: SFC partitions track the idealized cubic partitioner; allow 2x.
  EXPECT_LT(st.mean_surface_to_volume, 2.0 * st.ideal_cubic);
}

TEST(PartitionCells, MortonVsHilbertQuality) {
  // Hilbert's unit-step locality should be at least as good as Morton's.
  const CartMesh mh = build_uniform_mesh(unit_domain(), 16, SfcKind::PeanoHilbert);
  const CartMesh mm = build_uniform_mesh(unit_domain(), 16, SfcKind::Morton);
  const auto ph = partition_cells(mh, 8);
  const auto pm = partition_cells(mm, 8);
  const auto sh = partition_surface_stats(mh, ph, 8);
  const auto sm = partition_surface_stats(mm, pm, 8);
  EXPECT_LE(sh.mean_surface_to_volume, sm.mean_surface_to_volume * 1.05);
}

// --- Bit-identity of the mesher -------------------------------------------
//
// 64-bit FNV-1a fingerprints of whole meshes, recorded from the brute-force
// cut-cell classifier (every cell box against every triangle box). The
// indexed classifier must reproduce them exactly: same cells, fractions,
// wall areas, SFC keys and faces, down to the last bit.

class Fnv1a {
 public:
  template <class T>
  void add(const T& v) {
    const auto* p = reinterpret_cast<const unsigned char*>(&v);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void add(const Vec3& v) {
    add(v.x);
    add(v.y);
    add(v.z);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Hashes every field separately, so struct padding never enters the hash.
std::uint64_t fingerprint(const CartMesh& m) {
  Fnv1a f;
  f.add(m.base_n);
  f.add(m.max_level);
  f.add(m.cells.size());
  for (const CartCell& c : m.cells) {
    for (std::uint32_t a : c.anchor) f.add(a);
    f.add(c.level);
    f.add(c.cut);
    f.add(c.fluid_frac);
    f.add(c.wall_area);
  }
  f.add(m.sfc_keys.size());
  for (std::uint64_t k : m.sfc_keys) f.add(k);
  for (const auto* faces : {&m.faces, &m.boundary_faces}) {
    f.add(faces->size());
    for (const CartFace& fc : *faces) {
      f.add(fc.left);
      f.add(fc.right);
      f.add(fc.axis);
      f.add(fc.area);
      f.add(fc.center);
    }
  }
  return f.value();
}

Aabb padded(const geom::TriSurface& s, real_t pad) {
  Aabb d = s.bounds();
  const Vec3 p = pad * (d.hi - d.lo);
  d.lo -= p;
  d.hi += p;
  return d;
}

struct FingerprintCase {
  real_t deflection;
  int resolution;
  int base_n;
  SfcKind sfc;
  std::uint64_t expected;
};

void expect_fingerprints(const FingerprintCase* cases, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const FingerprintCase& fc = cases[i];
    const auto sslv = geom::make_sslv(fc.deflection, fc.resolution);
    CartMeshOptions opt;
    opt.base_n = fc.base_n;
    opt.max_level = 2;
    opt.sfc = fc.sfc;
    const CartMesh m = build_cart_mesh(sslv, padded(sslv, 1.0), opt);
    EXPECT_EQ(fingerprint(m), fc.expected)
        << "deflection " << fc.deflection << " resolution " << fc.resolution
        << " base_n " << fc.base_n << " sfc "
        << (fc.sfc == SfcKind::Morton ? "morton" : "hilbert") << " ("
        << m.num_cells() << " cells)";
  }
}

constexpr SfcKind kMorton = SfcKind::Morton;
constexpr SfcKind kHilbert = SfcKind::PeanoHilbert;

TEST(CartMeshFingerprint, SslvResolution1MatchesRecordedBits) {
  const FingerprintCase cases[] = {
      {-0.15, 1, 20, kMorton, 18192041693093073295ull},
      {-0.15, 1, 20, kHilbert, 12080817901363035623ull},
      {-0.15, 1, 24, kMorton, 9519724112924570058ull},
      {-0.15, 1, 24, kHilbert, 16956279459566989700ull},
      {0.0, 1, 20, kMorton, 15089472483695591791ull},
      {0.0, 1, 20, kHilbert, 8884263816173062015ull},
      {0.0, 1, 24, kMorton, 15698480393464569760ull},
      {0.0, 1, 24, kHilbert, 13347004461530487072ull},
      {0.15, 1, 20, kMorton, 1789122173424277395ull},
      {0.15, 1, 20, kHilbert, 5004399324703469572ull},
      {0.15, 1, 24, kMorton, 14370391503225878340ull},
      {0.15, 1, 24, kHilbert, 6773861591724572900ull},
  };
  expect_fingerprints(cases, std::size(cases));
}

TEST(CartMeshFingerprint, SslvResolution2MatchesRecordedBits) {
  const FingerprintCase cases[] = {
      {-0.15, 2, 20, kMorton, 8652471347845494994ull},
      {-0.15, 2, 20, kHilbert, 2507059064912452950ull},
      {-0.15, 2, 24, kMorton, 12934921533194823550ull},
      {-0.15, 2, 24, kHilbert, 3259934089956772511ull},
      {0.0, 2, 20, kMorton, 2132014384495677825ull},
      {0.0, 2, 20, kHilbert, 3359379629810782171ull},
      {0.0, 2, 24, kMorton, 10725077053053220080ull},
      {0.0, 2, 24, kHilbert, 1102228909616075929ull},
      {0.15, 2, 20, kMorton, 6115441675711967086ull},
      {0.15, 2, 20, kHilbert, 1629048836346292944ull},
      {0.15, 2, 24, kMorton, 17627172178828349810ull},
      {0.15, 2, 24, kHilbert, 6759279877342121188ull},
  };
  expect_fingerprints(cases, std::size(cases));
}

TEST(CartMeshFingerprint, RefinedSslvMatchesRecordedBits) {
  // An adapted mesh: a coarse SSLV mesh with every cut cell and every
  // fifth uncut cell flagged, refined one level (deepening max_level) and
  // re-classified against the surface.
  const auto sslv = geom::make_sslv(0.15, 1);
  CartMeshOptions opt;
  opt.base_n = 16;
  opt.max_level = 1;
  const CartMesh m = build_cart_mesh(sslv, padded(sslv, 1.0), opt);
  std::vector<bool> flags(m.cells.size());
  for (std::size_t i = 0; i < flags.size(); ++i)
    flags[i] = m.cells[i].cut || i % 5 == 0;
  const CartMesh r = refine_cells(m, &sslv, flags);
  EXPECT_EQ(r.max_level, 2);
  EXPECT_GT(r.num_cut_cells(), m.num_cut_cells());
  EXPECT_EQ(fingerprint(r), 10098403815604852783ull)
      << r.num_cells() << " cells";
}

// --- The index, the clipper and the classifier against references -------

/// The scan the index replaces: every triangle box against the query box.
std::vector<index_t> scan_candidates(const geom::TriSurface& s,
                                     const Aabb& box) {
  std::vector<index_t> out;
  for (index_t t = 0; t < s.num_triangles(); ++t)
    if (s.triangle_bounds(t).overlaps(box)) out.push_back(t);
  return out;
}

Aabb box_of(const Vec3& lo, const Vec3& hi) {
  Aabb b;
  b.lo = lo;
  b.hi = hi;
  return b;
}

/// Writable component `a` of v (Vec3::operator[] only reads).
real_t& comp(Vec3& v, int a) { return a == 0 ? v.x : (a == 1 ? v.y : v.z); }

TEST(TriangleBoxIndex, QueryEqualsScanOnRandomBoxes) {
  const auto sslv = geom::make_sslv(0.15, 1);
  const TriangleBoxIndex index(sslv);
  EXPECT_GT(index.bins_per_axis(), 1);
  const Aabb bounds = sslv.bounds();
  const Vec3 ext = bounds.hi - bounds.lo;
  Xoshiro256 rng(13);
  std::vector<index_t> got;
  int nonempty = 0;
  auto check = [&](const Aabb& box) {
    index.query(box, got);
    const std::vector<index_t> want = scan_candidates(sslv, box);
    ASSERT_EQ(got, want) << "box (" << box.lo.x << "," << box.lo.y << ","
                         << box.lo.z << ")-(" << box.hi.x << "," << box.hi.y
                         << "," << box.hi.z << ")";
    if (!want.empty()) ++nonempty;
  };
  for (int q = 0; q < 12000; ++q) {
    // Centers over twice the surface bounds (many boxes miss it entirely),
    // sizes log-uniform from 1e-4 to 2x the extent, zero extent 1 in 8.
    Vec3 c, h;
    for (int a = 0; a < 3; ++a) {
      const real_t lo = bounds.lo[a] - 0.5 * ext[a];
      const real_t center = rng.uniform(lo, lo + 2 * ext[a]);
      const real_t half =
          q % 8 == 0 ? 0 : ext[a] * std::pow(10.0, rng.uniform(-4, 0.3));
      comp(c, a) = center;
      comp(h, a) = half;
    }
    check(box_of(c - h, c + h));
  }
  // Boxes touching a triangle box exactly on one face, and degenerate boxes
  // at a triangle box corner.
  for (int q = 0; q < 2000; ++q) {
    const index_t t = index_t(rng.below(std::uint64_t(sslv.num_triangles())));
    const Aabb tb = sslv.triangle_bounds(t);
    Aabb touch = tb;
    const int axis = int(rng.below(3));
    const real_t w = 0.01 * ext[axis];
    if (q % 2 == 0) {
      comp(touch.lo, axis) = tb.hi[axis];
      comp(touch.hi, axis) = tb.hi[axis] + w;
    } else {
      comp(touch.hi, axis) = tb.lo[axis];
      comp(touch.lo, axis) = tb.lo[axis] - w;
    }
    check(touch);
    const std::vector<index_t> hit = scan_candidates(sslv, touch);
    EXPECT_TRUE(std::binary_search(hit.begin(), hit.end(), t));
    check(box_of(q % 2 ? tb.lo : tb.hi, q % 2 ? tb.lo : tb.hi));
  }
  // The whole surface and far-away boxes.
  check(bounds);
  check(box_of(bounds.hi + ext, bounds.hi + 2.0 * ext));
  EXPECT_GT(nonempty, 3000);
}

/// The heap-vector Sutherland-Hodgman clipper the fixed-capacity one
/// replaced, kept verbatim as the bitwise reference.
std::vector<Vec3> clip_halfspace_vector(const std::vector<Vec3>& poly,
                                        int axis, real_t value, real_t sign) {
  std::vector<Vec3> out;
  const std::size_t n = poly.size();
  if (n == 0) return out;
  auto side = [&](const Vec3& p) {
    const real_t coord = axis == 0 ? p.x : (axis == 1 ? p.y : p.z);
    return sign * (coord - value);
  };
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3& cur = poly[i];
    const Vec3& nxt = poly[(i + 1) % n];
    const real_t sc = side(cur), sn = side(nxt);
    if (sc <= 0) out.push_back(cur);
    if ((sc < 0 && sn > 0) || (sc > 0 && sn < 0)) {
      const real_t t = sc / (sc - sn);
      out.push_back(cur + t * (nxt - cur));
    }
  }
  return out;
}

std::vector<Vec3> clip_vector(const Vec3& a, const Vec3& b, const Vec3& c,
                              const Aabb& box) {
  std::vector<Vec3> poly{a, b, c};
  poly = clip_halfspace_vector(poly, 0, box.lo.x, -1);
  poly = clip_halfspace_vector(poly, 0, box.hi.x, +1);
  poly = clip_halfspace_vector(poly, 1, box.lo.y, -1);
  poly = clip_halfspace_vector(poly, 1, box.hi.y, +1);
  poly = clip_halfspace_vector(poly, 2, box.lo.z, -1);
  poly = clip_halfspace_vector(poly, 2, box.hi.z, +1);
  return poly;
}

std::uint64_t bits(real_t v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_bits(const Vec3& a, const Vec3& b) {
  EXPECT_EQ(bits(a.x), bits(b.x));
  EXPECT_EQ(bits(a.y), bits(b.y));
  EXPECT_EQ(bits(a.z), bits(b.z));
}

/// Clips with both clippers and requires bitwise-equal polygons and area
/// vectors; returns the vertex count.
std::size_t expect_clips_agree(const Vec3& a, const Vec3& b, const Vec3& c,
                               const Aabb& box) {
  const ClipPolygon got = clip_triangle_to_box(a, b, c, box);
  const std::vector<Vec3> want = clip_vector(a, b, c, box);
  EXPECT_EQ(got.size(), want.size());
  if (got.size() != want.size()) return got.size();
  for (std::size_t i = 0; i < want.size(); ++i)
    expect_same_bits(got[i], want[i]);
  // The old area routine took the vector; the span overload must sum the
  // same terms in the same order.
  Vec3 want_area{};
  if (want.size() >= 3)
    for (std::size_t i = 1; i + 1 < want.size(); ++i)
      want_area += 0.5 * cross(want[i] - want[0], want[i + 1] - want[0]);
  expect_same_bits(polygon_area_vector(got), want_area);
  return got.size();
}

TEST(Clip, FixedCapacityMatchesVectorClipperBitwise) {
  Aabb unit;
  unit.expand({0, 0, 0});
  unit.expand({1, 1, 1});
  // A triangle in the plane x + y + z = 1.5 whose corners point at three
  // alternate corners of the plane's hexagonal section of the cube and
  // whose edges cut off the other three: 6 + 3 = 9 vertices.
  const Vec3 mid{0.5, 0.5, 0.5};
  const Vec3 corners[3] = {{1, 0, 0.5}, {0, 0.5, 1}, {0.5, 1, 0}};
  Vec3 tri[3];
  for (int k = 0; k < 3; ++k) tri[k] = mid + 1.5 * (corners[k] - mid);
  EXPECT_EQ(expect_clips_agree(tri[0], tri[1], tri[2], unit), 9u);

  // Random triangles against random boxes: inside, straddling, huge,
  // disjoint, and with vertices snapped onto the box planes.
  Xoshiro256 rng(29);
  std::size_t max_n = 0;
  for (int q = 0; q < 20000; ++q) {
    Vec3 lo{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    const Vec3 hi = lo + Vec3{rng.uniform(0.01, 1), rng.uniform(0.01, 1),
                              rng.uniform(0.01, 1)};
    const Aabb box = box_of(lo, hi);
    const real_t spread = std::pow(10.0, rng.uniform(-1.5, 1));
    Vec3 v[3];
    for (Vec3& p : v) {
      p = box.center() + spread * Vec3{rng.uniform(-1, 1), rng.uniform(-1, 1),
                                       rng.uniform(-1, 1)};
      if (q % 4 == 0) p.x = rng.below(2) ? box.lo.x : box.hi.x;
      if (q % 6 == 0) p.z = rng.below(2) ? box.lo.z : box.hi.z;
    }
    max_n = std::max(max_n, expect_clips_agree(v[0], v[1], v[2], box));
  }
  EXPECT_GE(max_n, 7u);
  EXPECT_LE(max_n, ClipPolygon::kCapacity);
}

/// Point-in-solid by the definition: crossings of the downward ray with
/// every triangle, no column buckets.
bool inside_by_scan(const geom::TriSurface& s, const Vec3& p) {
  Aabb padded_bounds = s.bounds();
  const Vec3 pad = 1e-9 * (padded_bounds.hi - padded_bounds.lo) +
                   Vec3{1e-12, 1e-12, 1e-12};
  padded_bounds.lo -= pad;
  padded_bounds.hi += pad;
  if (!padded_bounds.contains(p)) return false;
  int crossings = 0;
  for (index_t t = 0; t < s.num_triangles(); ++t) {
    const geom::Triangle& tri = s.triangle(t);
    const Vec3& a = s.vertex(tri.v[0]);
    const Vec3& b = s.vertex(tri.v[1]);
    const Vec3& c = s.vertex(tri.v[2]);
    const real_t d1 = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x);
    const real_t d2 = (c.x - b.x) * (p.y - b.y) - (c.y - b.y) * (p.x - b.x);
    const real_t d3 = (a.x - c.x) * (p.y - c.y) - (a.y - c.y) * (p.x - c.x);
    const bool has_neg = (d1 < 0) || (d2 < 0) || (d3 < 0);
    const bool has_pos = (d1 > 0) || (d2 > 0) || (d3 > 0);
    if (has_neg && has_pos) continue;
    const Vec3 n = cross(b - a, c - a);
    if (std::abs(n.z) < 1e-30) continue;
    const real_t z = a.z - ((p.x - a.x) * n.x + (p.y - a.y) * n.y) / n.z;
    if (z < p.z) ++crossings;
  }
  return crossings % 2 == 1;
}

TEST(Inside, ColumnBatchedFluidFractionEqualsPerSampleCounts) {
  const auto sslv = geom::make_sslv(-0.15, 1);
  const InsideClassifier cls(sslv);
  const Aabb bounds = sslv.bounds();
  const Vec3 ext = bounds.hi - bounds.lo;
  Xoshiro256 rng(41);
  int mixed = 0;
  for (int q = 0; q < 600; ++q) {
    // Boxes from cut-cell size to a quarter of the body, some hanging over
    // the bounds.
    Vec3 lo;
    for (int a = 0; a < 3; ++a)
      comp(lo, a) = rng.uniform(bounds.lo[a] - 0.1 * ext[a], bounds.hi[a]);
    const real_t w = ext.x * std::pow(10.0, rng.uniform(-2.3, -0.6));
    const Aabb box = box_of(lo, lo + Vec3{w, 0.7 * w, 0.5 * w});
    const Vec3 size = box.hi - box.lo;
    for (int samples = 1; samples <= 5; ++samples) {
      int fluid = 0;
      for (int k = 0; k < samples; ++k)
        for (int j = 0; j < samples; ++j)
          for (int i = 0; i < samples; ++i) {
            const Vec3 p = box.lo + Vec3{size.x * (i + 0.5) / samples,
                                         size.y * (j + 0.5) / samples,
                                         size.z * (k + 0.5) / samples};
            const bool in = cls.inside(p);
            if (samples == 3) {
              ASSERT_EQ(in, inside_by_scan(sslv, p));
            }
            if (!in) ++fluid;
          }
      const real_t want =
          real_t(fluid) / real_t(samples * samples * samples);
      const real_t got = cls.fluid_fraction(box, samples);
      ASSERT_EQ(bits(got), bits(want))
          << "samples " << samples << " box " << q;
      if (samples == 5 && got > 0 && got < 1) ++mixed;
    }
  }
  EXPECT_GT(mixed, 30);  // the boxes really straddle the surface
}

}  // namespace
}  // namespace columbia::cartesian
