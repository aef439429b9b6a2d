#include "cartesian/clip.hpp"

namespace columbia::cartesian {

using geom::Vec3;

namespace {

/// Clips `poly` against the half-space {p : sign*(p[axis] - value) <= 0}.
void clip_halfspace(const ClipPolygon& poly, int axis, real_t value,
                    real_t sign, ClipPolygon& out) {
  out.n = 0;
  const std::size_t n = poly.size();
  if (n == 0) return;
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
}

}  // namespace

ClipPolygon clip_triangle_to_box(const Vec3& a, const Vec3& b, const Vec3& c,
                                 const geom::Aabb& box) {
  ClipPolygon poly, tmp;
  poly.push_back(a);
  poly.push_back(b);
  poly.push_back(c);
  clip_halfspace(poly, 0, box.lo.x, -1, tmp);
  clip_halfspace(tmp, 0, box.hi.x, +1, poly);
  clip_halfspace(poly, 1, box.lo.y, -1, tmp);
  clip_halfspace(tmp, 1, box.hi.y, +1, poly);
  clip_halfspace(poly, 2, box.lo.z, -1, tmp);
  clip_halfspace(tmp, 2, box.hi.z, +1, poly);
  return poly;
}

Vec3 polygon_area_vector(std::span<const Vec3> poly) {
  Vec3 area{};
  if (poly.size() < 3) return area;
  for (std::size_t i = 1; i + 1 < poly.size(); ++i)
    area += 0.5 * cross(poly[i] - poly[0], poly[i + 1] - poly[0]);
  return area;
}

}  // namespace columbia::cartesian
