// Point-in-solid classification for watertight triangulations.
//
// The Cartesian mesh generator must classify cells as fluid, solid, or cut
// (paper Sec. V). Solidity queries use vertical (z-direction) ray casting
// against the component triangulation, accelerated by bucketing triangles
// into an (x, y) grid so each query touches only the triangles over its
// column.
#pragma once

#include <span>
#include <vector>

#include "geom/surface.hpp"

namespace columbia::cartesian {

class InsideClassifier {
 public:
  /// Builds the column index. `grid` controls the (x,y) bucket resolution.
  explicit InsideClassifier(const geom::TriSurface& surface, int grid = 64);

  /// True when p lies inside the solid (odd number of surface crossings
  /// below... i.e. along the -z ray).
  bool inside(const geom::Vec3& p) const;

  /// Fraction of `samples`^3 sub-points of the box that are in the fluid
  /// (outside the solid). 1 = fully fluid, 0 = fully solid. Each (x, y)
  /// sample column is intersected with the surface once; every sample on
  /// it is classified against those crossing heights, so the answer is
  /// the per-sample inside() count exactly.
  real_t fluid_fraction(const geom::Aabb& box, int samples = 3) const;

 private:
  const geom::TriSurface& surface_;
  geom::Aabb bounds_;
  int grid_;
  real_t dx_, dy_;
  std::vector<std::vector<index_t>> buckets_;  // triangle ids per (x,y) cell

  std::size_t bucket_of(real_t x, real_t y) const;
  /// For each height zs[k], counts the surface crossings of the downward
  /// ray from (x, y, zs[k]) into below[k].
  void count_crossings(real_t x, real_t y, std::span<const real_t> zs,
                       std::span<int> below) const;
};

}  // namespace columbia::cartesian
