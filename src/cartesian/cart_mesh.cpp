#include "cartesian/cart_mesh.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "cartesian/clip.hpp"
#include "geom/tribox.hpp"
#include "sfc/hilbert.hpp"
#include "sfc/morton.hpp"
#include "sfc/sfc_partition.hpp"
#include "support/assert.hpp"

namespace columbia::cartesian {

using geom::Aabb;
using geom::Vec3;

namespace {

/// Packs (level, anchor) into a hash key: 4 bits level, 20 bits per coord.
std::uint64_t pack_key(int level, const std::array<std::uint32_t, 3>& a) {
  // 4-bit level field: levels live in [-8, 7] (sub-base coarsening goes
  // negative), which is injective modulo 16.
  return (std::uint64_t(level & 0xF) << 60) | (std::uint64_t(a[0]) << 40) |
         (std::uint64_t(a[1]) << 20) | std::uint64_t(a[2]);
}

struct Proto {
  std::array<std::uint32_t, 3> anchor;
  std::int8_t level;
};

}  // namespace

index_t CartMesh::num_cut_cells() const {
  index_t n = 0;
  for (const CartCell& c : cells)
    if (c.cut) ++n;
  return n;
}

real_t CartMesh::cell_width(int level, int axis) const {
  const real_t extent =
      axis == 0 ? domain.hi.x - domain.lo.x
                : (axis == 1 ? domain.hi.y - domain.lo.y
                             : domain.hi.z - domain.lo.z);
  // ldexp handles the negative levels created by sub-base coarsening.
  return extent / std::ldexp(real_t(base_n), level);
}

Aabb CartMesh::cell_box(const CartCell& c) const {
  const real_t n_fine = real_t(std::uint32_t(base_n) << max_level);
  const std::uint32_t span = cell_span(c);
  Aabb box;
  const Vec3 ext = domain.hi - domain.lo;
  box.lo = domain.lo + Vec3{ext.x * real_t(c.anchor[0]) / n_fine,
                            ext.y * real_t(c.anchor[1]) / n_fine,
                            ext.z * real_t(c.anchor[2]) / n_fine};
  box.hi = domain.lo + Vec3{ext.x * real_t(c.anchor[0] + span) / n_fine,
                            ext.y * real_t(c.anchor[1] + span) / n_fine,
                            ext.z * real_t(c.anchor[2] + span) / n_fine};
  return box;
}

Vec3 CartMesh::cell_center(const CartCell& c) const {
  return cell_box(c).center();
}

real_t CartMesh::cell_volume(const CartCell& c) const {
  return cell_width(c.level, 0) * cell_width(c.level, 1) *
         cell_width(c.level, 2) * c.fluid_frac;
}

real_t CartMesh::total_fluid_volume() const {
  real_t v = 0;
  for (const CartCell& c : cells) v += cell_volume(c);
  return v;
}

TriangleBoxIndex::TriangleBoxIndex(const geom::TriSurface& surface) {
  const std::size_t ntri = std::size_t(surface.num_triangles());
  boxes_.resize(ntri);
  for (index_t t = 0; t < surface.num_triangles(); ++t) {
    boxes_[std::size_t(t)] = surface.triangle_bounds(t);
    bounds_.merge(boxes_[std::size_t(t)]);
  }
  n_ = std::clamp(int(std::ceil(std::cbrt(real_t(ntri)))), 1, 128);
  const Vec3 ext = bounds_.hi - bounds_.lo;
  for (int a = 0; a < 3; ++a)
    inv_width_[std::size_t(a)] = ext[a] > 0 ? real_t(n_) / ext[a] : 0;

  // Counting sort of (bin, triangle) pairs into CSR; ids stay ascending
  // within each bin.
  const std::size_t nbins = std::size_t(n_) * std::size_t(n_) * std::size_t(n_);
  start_.assign(nbins + 1, 0);
  auto for_each_bin = [&](const Aabb& b, auto&& fn) {
    const int i0 = bin(b.lo.x, 0), i1 = bin(b.hi.x, 0);
    const int j0 = bin(b.lo.y, 1), j1 = bin(b.hi.y, 1);
    const int k0 = bin(b.lo.z, 2), k1 = bin(b.hi.z, 2);
    for (int k = k0; k <= k1; ++k)
      for (int j = j0; j <= j1; ++j)
        for (int i = i0; i <= i1; ++i)
          fn((std::size_t(k) * std::size_t(n_) + std::size_t(j)) *
                 std::size_t(n_) +
             std::size_t(i));
  };
  for (const Aabb& b : boxes_)
    for_each_bin(b, [&](std::size_t bin_id) { ++start_[bin_id + 1]; });
  for (std::size_t b = 0; b < nbins; ++b) start_[b + 1] += start_[b];
  ids_.resize(std::size_t(start_[nbins]));
  std::vector<index_t> fill(start_.begin(), start_.end() - 1);
  for (std::size_t t = 0; t < ntri; ++t)
    for_each_bin(boxes_[t], [&](std::size_t bin_id) {
      ids_[std::size_t(fill[bin_id]++)] = index_t(t);
    });
}

int TriangleBoxIndex::bin(real_t x, int axis) const {
  real_t f = (x - bounds_.lo[axis]) * inv_width_[std::size_t(axis)];
  const real_t top = real_t(n_ - 1);
  if (!(f > 0)) f = 0;  // also catches NaN
  if (f > top) f = top;
  return int(f);
}

void TriangleBoxIndex::query(const Aabb& box, std::vector<index_t>& out) const {
  out.clear();
  // Every triangle box lies inside bounds_, so a box missing bounds_ misses
  // them all.
  if (!bounds_.overlaps(box)) return;
  const int i0 = bin(box.lo.x, 0), i1 = bin(box.hi.x, 0);
  const int j0 = bin(box.lo.y, 1), j1 = bin(box.hi.y, 1);
  const int k0 = bin(box.lo.z, 2), k1 = bin(box.hi.z, 2);
  // Bins i0..i1 of one (j, k) row are contiguous in the CSR arrays.
  for (int k = k0; k <= k1; ++k)
    for (int j = j0; j <= j1; ++j) {
      const std::size_t row =
          (std::size_t(k) * std::size_t(n_) + std::size_t(j)) * std::size_t(n_);
      for (index_t e = start_[row + std::size_t(i0)];
           e < start_[row + std::size_t(i1) + 1]; ++e) {
        const index_t t = ids_[std::size_t(e)];
        if (boxes_[std::size_t(t)].overlaps(box)) out.push_back(t);
      }
    }
  // A triangle spanning several bins of the query is listed once per bin.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

CutCellClassifier::CutCellClassifier(const geom::TriSurface& surface)
    : surface_(surface), index_(surface), inside_(surface) {}

bool CutCellClassifier::cuts(const Aabb& box) {
  index_.query(box, cand_);
  for (index_t t : cand_) {
    const geom::Triangle& tri = surface_.triangle(t);
    if (geom::triangle_box_overlap(surface_.vertex(tri.v[0]),
                                   surface_.vertex(tri.v[1]),
                                   surface_.vertex(tri.v[2]), box))
      return true;
  }
  return false;
}

bool CutCellClassifier::classify(CartCell& c, const Aabb& box, int samples,
                                 real_t min_fluid_frac) {
  if (!cuts(box)) return !inside_.inside(box.center());
  c.cut = true;
  c.fluid_frac = inside_.fluid_fraction(box, samples);
  if (c.fluid_frac < min_fluid_frac) return false;  // effectively solid
  // Wall area vector: clipped surface polygons, summed in ascending
  // triangle order. Triangle normals point out of the solid (into the
  // fluid); the wall boundary of the fluid control volume points the other
  // way.
  Vec3 wall{};
  for (index_t t : cand_) {
    const geom::Triangle& tri = surface_.triangle(t);
    wall += polygon_area_vector(clip_triangle_to_box(
        surface_.vertex(tri.v[0]), surface_.vertex(tri.v[1]),
        surface_.vertex(tri.v[2]), box));
  }
  c.wall_area = -1.0 * wall;
  return true;
}

std::uint64_t sfc_key_of(const CartMesh& m, const CartCell& c, SfcKind kind) {
  const std::uint32_t half = m.cell_span(c) / 2;
  const std::uint32_t x = c.anchor[0] + half;
  const std::uint32_t y = c.anchor[1] + half;
  const std::uint32_t z = c.anchor[2] + half;
  if (kind == SfcKind::Morton) return sfc::morton3(x, y, z);
  // Bits needed to address finest cell centers.
  int bits = 1;
  while ((std::uint32_t(m.base_n) << m.max_level) >> bits) ++bits;
  bits = std::min(bits + 1, 21);
  return sfc::hilbert3(x, y, z, bits);
}

void sort_cells_by_sfc(CartMesh& m, SfcKind kind) {
  m.sfc_keys.resize(m.cells.size());
  for (std::size_t i = 0; i < m.cells.size(); ++i)
    m.sfc_keys[i] = sfc_key_of(m, m.cells[i], kind);
  const auto order = sfc::sort_order(m.sfc_keys);
  std::vector<CartCell> sorted(m.cells.size());
  std::vector<std::uint64_t> skeys(m.cells.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    sorted[i] = m.cells[std::size_t(order[i])];
    skeys[i] = m.sfc_keys[std::size_t(order[i])];
  }
  m.cells = std::move(sorted);
  m.sfc_keys = std::move(skeys);
}

void build_faces(CartMesh& m) {
  m.faces.clear();
  m.boundary_faces.clear();
  std::unordered_map<std::uint64_t, index_t> at;
  at.reserve(m.cells.size() * 2);
  for (std::size_t i = 0; i < m.cells.size(); ++i)
    at[pack_key(m.cells[i].level, m.cells[i].anchor)] = index_t(i);
  const std::int64_t n_fine =
      std::int64_t(std::uint32_t(m.base_n) << m.max_level);

  for (std::size_t ci = 0; ci < m.cells.size(); ++ci) {
    const CartCell& c = m.cells[ci];
    const std::int64_t span = std::int64_t(m.cell_span(c));
    const Aabb box = m.cell_box(c);
    const int a1[3] = {1, 2, 0}, a2[3] = {2, 0, 1};
    for (int axis = 0; axis < 3; ++axis) {
      const real_t face_area = m.cell_width(c.level, a1[axis]) *
                               m.cell_width(c.level, a2[axis]);
      for (int dir = -1; dir <= 1; dir += 2) {
        std::array<std::int64_t, 3> q = {c.anchor[0], c.anchor[1],
                                         c.anchor[2]};
        q[std::size_t(axis)] += dir > 0 ? span : -1;

        Vec3 fcenter = box.center();
        if (axis == 0) fcenter.x = dir > 0 ? box.hi.x : box.lo.x;
        if (axis == 1) fcenter.y = dir > 0 ? box.hi.y : box.lo.y;
        if (axis == 2) fcenter.z = dir > 0 ? box.hi.z : box.lo.z;

        if (q[std::size_t(axis)] < 0 || q[std::size_t(axis)] >= n_fine) {
          CartFace f;
          f.left = index_t(ci);
          f.right = kInvalidIndex;
          f.axis = std::int8_t(dir > 0 ? axis : -(axis + 1));
          f.area = face_area * c.fluid_frac;
          f.center = fcenter;
          m.boundary_faces.push_back(f);
          continue;
        }

        // Same-level neighbor: the +direction side owns the face.
        const std::array<std::uint32_t, 3> same = {
            std::uint32_t(q[0]) / std::uint32_t(span) * std::uint32_t(span),
            std::uint32_t(q[1]) / std::uint32_t(span) * std::uint32_t(span),
            std::uint32_t(q[2]) / std::uint32_t(span) * std::uint32_t(span)};
        const auto it = at.find(pack_key(c.level, same));
        if (it != at.end()) {
          if (dir > 0) {
            const CartCell& nb = m.cells[std::size_t(it->second)];
            CartFace f;
            f.left = index_t(ci);
            f.right = it->second;
            f.axis = std::int8_t(axis);
            f.area = face_area * std::min(c.fluid_frac, nb.fluid_frac);
            f.center = fcenter;
            if (f.area > 0) m.faces.push_back(f);
          }
          continue;
        }
        // Coarser neighbor: the finer cell owns the face.
        for (int lc = int(c.level) - 1; lc >= -8; --lc) {
          const std::uint32_t cspan = 1u << (m.max_level - lc);
          const std::array<std::uint32_t, 3> aligned = {
              std::uint32_t(q[0]) / cspan * cspan,
              std::uint32_t(q[1]) / cspan * cspan,
              std::uint32_t(q[2]) / cspan * cspan};
          const auto itc = at.find(pack_key(lc, aligned));
          if (itc == at.end()) continue;
          const CartCell& nb = m.cells[std::size_t(itc->second)];
          CartFace f;
          f.axis = std::int8_t(axis);
          f.area = face_area * std::min(c.fluid_frac, nb.fluid_frac);
          f.center = fcenter;
          if (dir > 0) {
            f.left = index_t(ci);
            f.right = itc->second;
          } else {
            f.left = itc->second;
            f.right = index_t(ci);
          }
          if (f.area > 0) m.faces.push_back(f);
          break;
        }
        // Finer neighbors add the face from their side.
      }
    }
  }
}

CartMesh build_cart_mesh(const geom::TriSurface& surface, const Aabb& domain,
                         const CartMeshOptions& opt) {
  COLUMBIA_REQUIRE(opt.base_n >= 2 && opt.max_level >= 0);
  COLUMBIA_REQUIRE(opt.max_level <= 7);  // pack_key level field
  COLUMBIA_REQUIRE((std::uint64_t(opt.base_n) << opt.max_level) <= (1u << 20));

  CartMesh m;
  m.domain = domain;
  m.base_n = opt.base_n;
  m.max_level = opt.max_level;

  CutCellClassifier classifier(surface);

  // 1) Base grid.
  std::vector<Proto> active;
  const std::uint32_t base_span = 1u << opt.max_level;
  for (std::uint32_t k = 0; k < std::uint32_t(opt.base_n); ++k)
    for (std::uint32_t j = 0; j < std::uint32_t(opt.base_n); ++j)
      for (std::uint32_t i = 0; i < std::uint32_t(opt.base_n); ++i)
        active.push_back(
            {{i * base_span, j * base_span, k * base_span}, 0});

  auto proto_box = [&](const Proto& p) {
    CartCell c;
    c.anchor = p.anchor;
    c.level = p.level;
    return m.cell_box(c);
  };

  // 2) Refine cells that intersect the surface, level by level.
  for (int lvl = 0; lvl < opt.max_level; ++lvl) {
    std::vector<Proto> next;
    next.reserve(active.size());
    for (const Proto& p : active) {
      if (int(p.level) != lvl) {
        next.push_back(p);
        continue;
      }
      if (!classifier.cuts(proto_box(p))) {
        next.push_back(p);
        continue;
      }
      const std::uint32_t half = (1u << (opt.max_level - p.level)) / 2;
      for (int oc = 0; oc < 8; ++oc) {
        Proto child;
        child.level = std::int8_t(p.level + 1);
        child.anchor = {p.anchor[0] + ((oc & 1) ? half : 0),
                        p.anchor[1] + ((oc & 2) ? half : 0),
                        p.anchor[2] + ((oc & 4) ? half : 0)};
        next.push_back(child);
      }
    }
    active = std::move(next);
  }

  // 3) 2:1 balance: split any cell with a face neighbor two or more levels
  // finer. Iterate to a fixed point (propagation is monotone).
  bool changed = true;
  while (changed) {
    changed = false;
    std::unordered_map<std::uint64_t, index_t> at;
    at.reserve(active.size() * 2);
    for (std::size_t i = 0; i < active.size(); ++i)
      at[pack_key(active[i].level, active[i].anchor)] = index_t(i);
    const std::int64_t n_fine =
        std::int64_t(std::uint32_t(opt.base_n) << opt.max_level);

    std::vector<bool> split(active.size(), false);
    for (const Proto& p : active) {
      if (p.level < 2) continue;
      const std::int64_t span = 1 << (opt.max_level - p.level);
      for (int axis = 0; axis < 3; ++axis)
        for (int dir = -1; dir <= 1; dir += 2) {
          std::array<std::int64_t, 3> q = {p.anchor[0], p.anchor[1],
                                           p.anchor[2]};
          q[std::size_t(axis)] += dir > 0 ? span : -1;
          if (q[std::size_t(axis)] < 0 || q[std::size_t(axis)] >= n_fine)
            continue;
          // Find the containing cell by walking up levels.
          for (int lc = int(p.level) - 2; lc >= 0; --lc) {
            const std::uint32_t cspan = 1u << (opt.max_level - lc);
            const std::array<std::uint32_t, 3> aligned = {
                std::uint32_t(q[0]) / cspan * cspan,
                std::uint32_t(q[1]) / cspan * cspan,
                std::uint32_t(q[2]) / cspan * cspan};
            const auto it = at.find(pack_key(lc, aligned));
            if (it != at.end()) {
              if (!split[std::size_t(it->second)]) {
                split[std::size_t(it->second)] = true;
                changed = true;
              }
              break;
            }
          }
        }
    }
    if (!changed) break;
    std::vector<Proto> next;
    next.reserve(active.size() + 8);
    for (std::size_t i = 0; i < active.size(); ++i) {
      const Proto& p = active[i];
      if (!split[i]) {
        next.push_back(p);
        continue;
      }
      const std::uint32_t half = (1u << (opt.max_level - p.level)) / 2;
      for (int oc = 0; oc < 8; ++oc) {
        Proto child;
        child.level = std::int8_t(p.level + 1);
        child.anchor = {p.anchor[0] + ((oc & 1) ? half : 0),
                        p.anchor[1] + ((oc & 2) ? half : 0),
                        p.anchor[2] + ((oc & 4) ? half : 0)};
        next.push_back(child);
      }
    }
    active = std::move(next);
  }

  // 4) Classify cells: cut / fluid / solid. Solid cells are dropped.
  for (const Proto& p : active) {
    CartCell c;
    c.anchor = p.anchor;
    c.level = p.level;
    if (classifier.classify(c, m.cell_box(c), opt.classify_samples,
                            opt.min_fluid_frac))
      m.cells.push_back(c);
  }

  // 5) SFC ordering + 6) faces.
  sort_cells_by_sfc(m, opt.sfc);
  build_faces(m);
  return m;
}

CartMesh build_uniform_mesh(const Aabb& domain, int n_per_axis, SfcKind sfc,
                            int coarsenable_levels) {
  COLUMBIA_REQUIRE(coarsenable_levels >= 0);
  COLUMBIA_REQUIRE(n_per_axis % (1 << coarsenable_levels) == 0);
  CartMesh m;
  m.domain = domain;
  m.base_n = n_per_axis >> coarsenable_levels;
  m.max_level = coarsenable_levels;
  COLUMBIA_REQUIRE(m.base_n >= 1);
  for (std::uint32_t k = 0; k < std::uint32_t(n_per_axis); ++k)
    for (std::uint32_t j = 0; j < std::uint32_t(n_per_axis); ++j)
      for (std::uint32_t i = 0; i < std::uint32_t(n_per_axis); ++i) {
        CartCell c;
        c.anchor = {i, j, k};
        c.level = std::int8_t(coarsenable_levels);
        m.cells.push_back(c);
      }
  sort_cells_by_sfc(m, sfc);
  build_faces(m);
  return m;
}

std::vector<index_t> partition_cells(const CartMesh& m, index_t nparts,
                                     real_t cut_weight) {
  std::vector<real_t> w(m.cells.size());
  for (std::size_t i = 0; i < m.cells.size(); ++i)
    w[i] = m.cells[i].cut ? cut_weight : 1.0;
  return sfc::partition_weighted(m.sfc_keys, w, nparts);
}

PartitionSurfaceStats partition_surface_stats(const CartMesh& m,
                                              std::span<const index_t> part,
                                              index_t nparts) {
  std::vector<real_t> cells_in(std::size_t(nparts), 0.0);
  std::vector<real_t> cut_faces(std::size_t(nparts), 0.0);
  for (index_t p : part) COLUMBIA_REQUIRE(p >= 0 && p < nparts);
  for (std::size_t i = 0; i < part.size(); ++i)
    cells_in[std::size_t(part[i])] += 1.0;
  for (const CartFace& f : m.faces) {
    if (f.right == kInvalidIndex) continue;
    const index_t pl = part[std::size_t(f.left)];
    const index_t pr = part[std::size_t(f.right)];
    if (pl != pr) {
      cut_faces[std::size_t(pl)] += 1.0;
      cut_faces[std::size_t(pr)] += 1.0;
    }
  }
  PartitionSurfaceStats st;
  real_t mean_v = 0;
  index_t used = 0;
  for (index_t p = 0; p < nparts; ++p) {
    if (cells_in[std::size_t(p)] == 0) continue;
    st.mean_surface_to_volume +=
        cut_faces[std::size_t(p)] / cells_in[std::size_t(p)];
    mean_v += cells_in[std::size_t(p)];
    ++used;
  }
  if (used > 0) {
    st.mean_surface_to_volume /= real_t(used);
    mean_v /= real_t(used);
    st.ideal_cubic = 6.0 / std::cbrt(mean_v);
  }
  return st;
}

}  // namespace columbia::cartesian
