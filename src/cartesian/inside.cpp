#include "cartesian/inside.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"

namespace columbia::cartesian {

using geom::Vec3;

InsideClassifier::InsideClassifier(const geom::TriSurface& surface, int grid)
    : surface_(surface), bounds_(surface.bounds()), grid_(grid) {
  COLUMBIA_REQUIRE(grid >= 1);
  // Pad the bounds slightly so boundary queries never index out of range.
  const Vec3 pad = 1e-9 * (bounds_.hi - bounds_.lo) + Vec3{1e-12, 1e-12, 1e-12};
  bounds_.lo -= pad;
  bounds_.hi += pad;
  dx_ = (bounds_.hi.x - bounds_.lo.x) / grid_;
  dy_ = (bounds_.hi.y - bounds_.lo.y) / grid_;

  buckets_.assign(std::size_t(grid_) * std::size_t(grid_),
                  std::vector<index_t>{});
  for (index_t t = 0; t < surface_.num_triangles(); ++t) {
    const geom::Aabb tb = surface_.triangle_bounds(t);
    const int ix0 = std::clamp(int((tb.lo.x - bounds_.lo.x) / dx_), 0, grid_ - 1);
    const int ix1 = std::clamp(int((tb.hi.x - bounds_.lo.x) / dx_), 0, grid_ - 1);
    const int iy0 = std::clamp(int((tb.lo.y - bounds_.lo.y) / dy_), 0, grid_ - 1);
    const int iy1 = std::clamp(int((tb.hi.y - bounds_.lo.y) / dy_), 0, grid_ - 1);
    for (int iy = iy0; iy <= iy1; ++iy)
      for (int ix = ix0; ix <= ix1; ++ix)
        buckets_[std::size_t(iy) * std::size_t(grid_) + std::size_t(ix)]
            .push_back(t);
  }
}

std::size_t InsideClassifier::bucket_of(real_t x, real_t y) const {
  const int ix = std::clamp(int((x - bounds_.lo.x) / dx_), 0, grid_ - 1);
  const int iy = std::clamp(int((y - bounds_.lo.y) / dy_), 0, grid_ - 1);
  return std::size_t(iy) * std::size_t(grid_) + std::size_t(ix);
}

void InsideClassifier::count_crossings(real_t x, real_t y,
                                       std::span<const real_t> zs,
                                       std::span<int> below) const {
  std::fill(below.begin(), below.end(), 0);
  for (index_t t : buckets_[bucket_of(x, y)]) {
    const geom::Triangle& tri = surface_.triangle(t);
    const Vec3& a = surface_.vertex(tri.v[0]);
    const Vec3& b = surface_.vertex(tri.v[1]);
    const Vec3& c = surface_.vertex(tri.v[2]);
    // 2D point-in-triangle in the (x, y) projection via edge functions.
    const real_t d1 = (b.x - a.x) * (y - a.y) - (b.y - a.y) * (x - a.x);
    const real_t d2 = (c.x - b.x) * (y - b.y) - (c.y - b.y) * (x - b.x);
    const real_t d3 = (a.x - c.x) * (y - c.y) - (a.y - c.y) * (x - c.x);
    const bool has_neg = (d1 < 0) || (d2 < 0) || (d3 < 0);
    const bool has_pos = (d1 > 0) || (d2 > 0) || (d3 > 0);
    if (has_neg && has_pos) continue;  // outside the projected triangle
    // Height of the triangle plane at (x, y).
    const Vec3 n = cross(b - a, c - a);
    if (std::abs(n.z) < 1e-30) continue;  // vertical triangle: no z-crossing
    const real_t z = a.z - ((x - a.x) * n.x + (y - a.y) * n.y) / n.z;
    for (std::size_t k = 0; k < zs.size(); ++k)
      if (z < zs[k]) ++below[k];
  }
}

bool InsideClassifier::inside(const Vec3& p) const {
  if (!bounds_.contains(p)) return false;
  // Count crossings of the downward ray {(p.x, p.y, z) : z < p.z}.
  int crossings = 0;
  count_crossings(p.x, p.y, {&p.z, 1}, {&crossings, 1});
  return (crossings % 2) == 1;
}

real_t InsideClassifier::fluid_fraction(const geom::Aabb& box,
                                        int samples) const {
  COLUMBIA_REQUIRE(samples >= 1);
  const Vec3 size = box.hi - box.lo;
  std::vector<real_t> zs(std::size_t(samples), 0.0);
  std::vector<int> below(std::size_t(samples), 0);
  for (int k = 0; k < samples; ++k)
    zs[std::size_t(k)] = box.lo.z + size.z * (k + 0.5) / samples;
  int fluid = 0;
  for (int j = 0; j < samples; ++j)
    for (int i = 0; i < samples; ++i) {
      const real_t x = box.lo.x + size.x * (i + 0.5) / samples;
      const real_t y = box.lo.y + size.y * (j + 0.5) / samples;
      // Outside the padded bounds in (x, y): the whole column is fluid.
      if (!(x >= bounds_.lo.x && x <= bounds_.hi.x && y >= bounds_.lo.y &&
            y <= bounds_.hi.y)) {
        fluid += samples;
        continue;
      }
      count_crossings(x, y, zs, below);
      for (int k = 0; k < samples; ++k) {
        const real_t z = zs[std::size_t(k)];
        const bool solid = z >= bounds_.lo.z && z <= bounds_.hi.z &&
                           below[std::size_t(k)] % 2 == 1;
        if (!solid) ++fluid;
      }
    }
  return real_t(fluid) / real_t(samples * samples * samples);
}

}  // namespace columbia::cartesian
