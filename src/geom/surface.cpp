#include "geom/surface.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "support/assert.hpp"

namespace columbia::geom {

void TriSurface::add_triangle(index_t a, index_t b, index_t c,
                              index_t component) {
  COLUMBIA_REQUIRE(a >= 0 && a < num_vertices());
  COLUMBIA_REQUIRE(b >= 0 && b < num_vertices());
  COLUMBIA_REQUIRE(c >= 0 && c < num_vertices());
  triangles_.push_back({{a, b, c}});
  components_.push_back(component);
}

index_t TriSurface::num_components() const {
  index_t m = 0;
  for (index_t c : components_) m = std::max(m, c + 1);
  return m;
}

Vec3 TriSurface::scaled_normal(index_t tri) const {
  const Triangle& t = triangles_[std::size_t(tri)];
  const Vec3& a = vertices_[std::size_t(t.v[0])];
  const Vec3& b = vertices_[std::size_t(t.v[1])];
  const Vec3& c = vertices_[std::size_t(t.v[2])];
  return cross(b - a, c - a);
}

real_t TriSurface::total_area() const {
  real_t s = 0;
  for (index_t i = 0; i < num_triangles(); ++i) s += area(i);
  return s;
}

Aabb TriSurface::bounds() const {
  Aabb box;
  for (const Vec3& p : vertices_) box.expand(p);
  return box;
}

Aabb TriSurface::triangle_bounds(index_t tri) const {
  const Triangle& t = triangles_[std::size_t(tri)];
  Aabb box;
  for (int k = 0; k < 3; ++k) box.expand(vertices_[std::size_t(t.v[k])]);
  return box;
}

bool TriSurface::is_watertight() const {
  // Each directed edge must be matched by exactly one opposite directed
  // edge; equivalently each undirected edge appears exactly twice with
  // opposite orientations.
  std::unordered_map<std::uint64_t, int> count;
  auto key = [](index_t a, index_t b) {
    return (std::uint64_t(std::uint32_t(a)) << 32) | std::uint32_t(b);
  };
  for (const Triangle& t : triangles_) {
    for (int k = 0; k < 3; ++k) {
      const index_t a = t.v[k];
      const index_t b = t.v[(k + 1) % 3];
      if (a == b) return false;
      count[key(a, b)] += 1;
    }
  }
  for (const auto& [k, c] : count) {
    const index_t a = index_t(k >> 32);
    const index_t b = index_t(k & 0xffffffffu);
    auto it = count.find(key(b, a));
    if (c != 1 || it == count.end() || it->second != 1) return false;
  }
  return true;
}

void TriSurface::append(const TriSurface& other) {
  const index_t voffset = num_vertices();
  const index_t coffset = num_components();
  vertices_.insert(vertices_.end(), other.vertices_.begin(),
                   other.vertices_.end());
  for (std::size_t i = 0; i < other.triangles_.size(); ++i) {
    const Triangle& t = other.triangles_[i];
    triangles_.push_back(
        {{t.v[0] + voffset, t.v[1] + voffset, t.v[2] + voffset}});
    components_.push_back(other.components_[i] + coffset);
  }
}

void TriSurface::translate(const Vec3& d) {
  for (Vec3& p : vertices_) p += d;
}

namespace {

Vec3 rotate_point(const Vec3& p, const Vec3& origin, const Vec3& axis,
                  real_t angle) {
  // Rodrigues' rotation formula around a unit axis.
  const Vec3 v = p - origin;
  const real_t c = std::cos(angle), s = std::sin(angle);
  const Vec3 r = v * c + cross(axis, v) * s + axis * (dot(axis, v) * (1 - c));
  return origin + r;
}

}  // namespace

void TriSurface::rotate(const Vec3& origin, const Vec3& axis,
                        real_t angle_rad) {
  const Vec3 u = normalized(axis);
  for (Vec3& p : vertices_) p = rotate_point(p, origin, u, angle_rad);
}

real_t TriSurface::enclosed_volume() const {
  // Divergence theorem: V = (1/6) sum over triangles of (a x b) . c
  real_t v6 = 0;
  for (const Triangle& t : triangles_) {
    const Vec3& a = vertices_[std::size_t(t.v[0])];
    const Vec3& b = vertices_[std::size_t(t.v[1])];
    const Vec3& c = vertices_[std::size_t(t.v[2])];
    v6 += dot(cross(a, b), c);
  }
  return v6 / 6.0;
}

}  // namespace columbia::geom
