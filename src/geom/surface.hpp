// Triangulated surface representation.
//
// Cart3D's geometry "comes into the system as a set of watertight solids"
// that are "automatically triangulated and positioned for the desired
// control surface deflections" (paper Sec. IV). TriSurface is that currency:
// a vertex/triangle soup with component ids, transforms, and a
// watertightness check (every edge shared by exactly two triangles).
#pragma once

#include <span>
#include <vector>

#include "geom/aabb.hpp"
#include "geom/vec3.hpp"
#include "support/types.hpp"

namespace columbia::geom {

struct Triangle {
  index_t v[3];
};

class TriSurface {
 public:
  TriSurface() = default;

  index_t add_vertex(const Vec3& p) {
    vertices_.push_back(p);
    return index_t(vertices_.size()) - 1;
  }
  void add_triangle(index_t a, index_t b, index_t c, index_t component = 0);

  index_t num_vertices() const { return index_t(vertices_.size()); }
  index_t num_triangles() const { return index_t(triangles_.size()); }

  const Vec3& vertex(index_t i) const { return vertices_[std::size_t(i)]; }
  const Triangle& triangle(index_t i) const {
    return triangles_[std::size_t(i)];
  }
  index_t num_components() const;

  std::span<const Vec3> vertices() const { return vertices_; }
  std::span<const Triangle> triangles() const { return triangles_; }

  /// Outward normal scaled by twice the area.
  Vec3 scaled_normal(index_t tri) const;
  real_t area(index_t tri) const { return 0.5 * norm(scaled_normal(tri)); }
  real_t total_area() const;

  Aabb bounds() const;
  Aabb triangle_bounds(index_t tri) const;

  /// True when every edge is shared by exactly two triangles (a closed,
  /// manifold surface — the "watertight" requirement of the paper).
  bool is_watertight() const;

  /// Appends another surface, remapping its components past ours.
  void append(const TriSurface& other);

  /// Rigid transforms, applied to all vertices.
  void translate(const Vec3& d);
  /// Rotates around axis (unit) through `origin` by `angle_rad`.
  void rotate(const Vec3& origin, const Vec3& axis, real_t angle_rad);

  /// Signed volume enclosed by the surface (positive when outward-oriented).
  real_t enclosed_volume() const;

 private:
  std::vector<Vec3> vertices_;
  std::vector<Triangle> triangles_;
  std::vector<index_t> components_;
};

}  // namespace columbia::geom
