// Multilevel adaptively-refined Cartesian mesh with embedded boundaries.
//
// This is the Cart3D substrate of the paper (Sec. V): a Cartesian mesh is
// generated automatically around a watertight component triangulation by
// recursive subdivision of the cells that intersect geometry, with 2:1
// level balance; cells fully inside the solid are discarded; cells crossed
// by the surface become cut cells. Cells are ordered along a space-filling
// curve (Morton or Peano-Hilbert), which later drives both mesh coarsening
// and domain decomposition.
//
// Every cell-versus-surface test starts from a uniform-grid index over the
// triangles' bounding boxes (TriangleBoxIndex), built once per mesh. Its
// candidate list for a cell is exactly the list a scan of all triangles
// would return, in the same ascending order, so the index changes only the
// cost of meshing: every cut flag, fluid fraction and wall-area sum is the
// one testing each cell against every triangle gives, bit for bit.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "cartesian/inside.hpp"
#include "geom/surface.hpp"
#include "support/types.hpp"

namespace columbia::cartesian {

enum class SfcKind { Morton, PeanoHilbert };

struct CartCell {
  /// Min corner in finest-grid integer units.
  std::array<std::uint32_t, 3> anchor;
  /// Refinement level: 0 = base grid, up to options.max_level.
  std::int8_t level;  // may go negative after sub-base coarsening
  bool cut = false;
  /// Fluid volume fraction (1 for uncut cells).
  real_t fluid_frac = 1.0;
  /// Area vector of the embedded surface inside this cell, oriented out of
  /// the fluid (into the solid). Zero for uncut cells.
  geom::Vec3 wall_area;
};

struct CartFace {
  index_t left;   // cell index
  index_t right;  // cell index, or kInvalidIndex for a domain-boundary face
  std::int8_t axis;  // 0, 1, 2; normal points from left to right (+axis)
  real_t area;       // fluid-scaled face area
  geom::Vec3 center;
};

struct CartMeshOptions {
  int base_n = 8;     // base cells per axis (level 0)
  int max_level = 3;  // maximum subdivision depth
  SfcKind sfc = SfcKind::PeanoHilbert;
  /// Minimum fluid fraction kept for a cut cell (the classic "small cell"
  /// clamp); cells below it are treated as solid and dropped.
  real_t min_fluid_frac = 0.05;
  int classify_samples = 3;  // fluid_fraction sampling resolution per axis
};

class CartMesh {
 public:
  geom::Aabb domain;
  int base_n = 0;
  int max_level = 0;
  std::vector<CartCell> cells;    // SFC-ordered
  std::vector<std::uint64_t> sfc_keys;  // parallel to cells
  std::vector<CartFace> faces;          // interior fluid faces
  std::vector<CartFace> boundary_faces;  // domain boundary (farfield)

  index_t num_cells() const { return index_t(cells.size()); }
  index_t num_cut_cells() const;

  /// Edge length of a level-L cell along axis a.
  real_t cell_width(int level, int axis) const;
  geom::Vec3 cell_center(const CartCell& c) const;
  geom::Aabb cell_box(const CartCell& c) const;
  real_t cell_volume(const CartCell& c) const;  // fluid-scaled

  /// Span of the cell in finest-grid units (levels may be negative after
  /// sub-base coarsening, giving spans larger than the base cell).
  std::uint32_t cell_span(const CartCell& c) const {
    return 1u << (max_level - int(c.level));
  }

  /// Total fluid volume (sum of cell volumes).
  real_t total_fluid_volume() const;
};

/// Uniform grid over the bounding boxes of a surface's triangles: the
/// candidate filter of cut-cell classification.
///
/// The grid spans the union of the triangle boxes with ceil(cbrt(n)) bins
/// per axis for n triangles (at most 128): about one bin per triangle.
/// Every triangle is listed in each bin its box spans. Bin coordinates are
/// clamped in floating point before the conversion to an integer, so boxes
/// far outside the grid (or NaN) land in an edge bin instead of
/// overflowing.
class TriangleBoxIndex {
 public:
  explicit TriangleBoxIndex(const geom::TriSurface& surface);

  /// Ids of the triangles whose bounding box overlaps `box`
  /// (geom::Aabb::overlaps), ascending and without duplicates: the list a
  /// scan over every triangle returns, in the same order.
  void query(const geom::Aabb& box, std::vector<index_t>& out) const;

  int bins_per_axis() const { return n_; }

 private:
  /// Bin coordinate of `x` along `axis`. Monotone in x, so two overlapping
  /// intervals always share a bin.
  int bin(real_t x, int axis) const;

  std::vector<geom::Aabb> boxes_;
  geom::Aabb bounds_;  // union of boxes_
  int n_ = 1;
  std::array<real_t, 3> inv_width_{};
  std::vector<index_t> start_;  // CSR: bin -> ids_[start_[b], start_[b+1])
  std::vector<index_t> ids_;
};

/// The per-cell classification shared by build_cart_mesh and refine_cells:
/// index candidates, exact triangle-box tests, sampled fluid fraction and
/// the clipped wall-area sum.
class CutCellClassifier {
 public:
  explicit CutCellClassifier(const geom::TriSurface& surface);

  /// True when some surface triangle meets the box (the refinement test).
  bool cuts(const geom::Aabb& box);

  /// Classifies the cell occupying `box`: sets c.cut, c.fluid_frac
  /// (`samples` per axis) and c.wall_area. Returns false when the cell is
  /// solid (uncut with its center inside, or cut with a fluid fraction
  /// below `min_fluid_frac`) and must be dropped.
  bool classify(CartCell& c, const geom::Aabb& box, int samples,
                real_t min_fluid_frac);

 private:
  const geom::TriSurface& surface_;
  TriangleBoxIndex index_;
  InsideClassifier inside_;
  std::vector<index_t> cand_;
};

/// Generates the adapted cut-cell mesh around `surface`.
/// The paper quotes 3-5 million cells/minute for this step on Itanium2
/// (Sec. IV); this single-threaded generator makes about 13-30 million
/// per minute on one core of a Xeon KVM guest (SSLV with 3k-42k
/// triangles, base_n 24, max_level 2; DESIGN.md §12).
CartMesh build_cart_mesh(const geom::TriSurface& surface,
                         const geom::Aabb& domain,
                         const CartMeshOptions& opt = {});

/// Uniform mesh with no geometry (all cells fluid, no cut cells).
/// `coarsenable_levels` places all cells at that refinement level above a
/// base grid of n_per_axis / 2^levels, so the SFC coarsener can build that
/// many multigrid levels below it. n_per_axis must be divisible by
/// 2^coarsenable_levels.
CartMesh build_uniform_mesh(const geom::Aabb& domain, int n_per_axis,
                            SfcKind sfc = SfcKind::PeanoHilbert,
                            int coarsenable_levels = 0);

/// SFC key of a cell's center (used for ordering and partitioning).
std::uint64_t sfc_key_of(const CartMesh& m, const CartCell& c, SfcKind kind);

/// Reorders cells (and keys) along the SFC.
void sort_cells_by_sfc(CartMesh& m, SfcKind kind);

/// Rebuilds interior and boundary face lists from the cell list. Handles
/// arbitrary level differences across a face (the finer side owns it).
void build_faces(CartMesh& m);

/// SFC partition of the cells into contiguous curve segments, cut cells
/// weighted `cut_weight` (2.1 in the paper's Fig. 12).
std::vector<index_t> partition_cells(const CartMesh& m, index_t nparts,
                                     real_t cut_weight = 2.1);

struct PartitionSurfaceStats {
  real_t mean_surface_to_volume = 0;  // averaged over parts
  real_t ideal_cubic = 0;             // 6 * V^(2/3) / V for the mean part
};

/// Communication quality of a partition: cut faces per part vs the ideal
/// cube (paper: SFC partitions "track that of an idealized cubic
/// partitioner").
PartitionSurfaceStats partition_surface_stats(const CartMesh& m,
                                              std::span<const index_t> part,
                                              index_t nparts);

}  // namespace columbia::cartesian
