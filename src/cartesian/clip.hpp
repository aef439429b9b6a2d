// Triangle-against-box polygon clipping.
//
// A cut cell's wall boundary condition needs the area vector of the piece
// of surface inside the cell (paper Sec. V: embedded-boundary cut cells).
// Sutherland-Hodgman clipping against the six box planes yields the clipped
// polygon; its area vector is exact for planar input.
#pragma once

#include <array>
#include <cstddef>
#include <span>

#include "geom/aabb.hpp"
#include "geom/vec3.hpp"

namespace columbia::cartesian {

/// Fixed-capacity polygon: the clipper runs without touching the heap.
///
/// In exact arithmetic a triangle clipped by six planes has at most 9
/// vertices (a plane adds at most one vertex to a convex polygon). Rounding
/// can leave a near-degenerate polygon slightly non-convex, and a plane can
/// then add up to half the vertex count: 3 -> 4 -> 6 -> 9 -> 13 -> 19 -> 28.
/// The capacity is that rounding-proof bound, so no input overflows it.
struct ClipPolygon {
  static constexpr std::size_t kCapacity = 28;

  std::array<geom::Vec3, kCapacity> v;
  std::size_t n = 0;

  std::size_t size() const { return n; }
  void push_back(const geom::Vec3& p) { v[n++] = p; }
  const geom::Vec3& operator[](std::size_t i) const { return v[i]; }
  operator std::span<const geom::Vec3>() const { return {v.data(), n}; }
};

/// Clips triangle (a,b,c) to the box; returns the clipped polygon's
/// vertices (empty when no overlap).
ClipPolygon clip_triangle_to_box(const geom::Vec3& a, const geom::Vec3& b,
                                 const geom::Vec3& c, const geom::Aabb& box);

/// Area vector (normal scaled by area) of a planar polygon.
geom::Vec3 polygon_area_vector(std::span<const geom::Vec3> poly);

}  // namespace columbia::cartesian
