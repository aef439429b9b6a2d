#include "cartesian/adaptation.hpp"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "support/assert.hpp"

namespace columbia::cartesian {

namespace {

std::uint64_t pack(int level, const std::array<std::uint32_t, 3>& a) {
  return (std::uint64_t(level & 0xF) << 60) | (std::uint64_t(a[0]) << 40) |
         (std::uint64_t(a[1]) << 20) | std::uint64_t(a[2]);
}

struct Proto {
  std::array<std::uint32_t, 3> anchor;
  std::int8_t level;
};

void split_into(const Proto& p, int max_level, std::vector<Proto>& out) {
  const std::uint32_t half = (1u << (max_level - p.level)) / 2;
  COLUMBIA_REQUIRE(half >= 1);
  for (int oc = 0; oc < 8; ++oc) {
    Proto c;
    c.level = std::int8_t(p.level + 1);
    c.anchor = {p.anchor[0] + ((oc & 1) ? half : 0),
                p.anchor[1] + ((oc & 2) ? half : 0),
                p.anchor[2] + ((oc & 4) ? half : 0)};
    out.push_back(c);
  }
}

}  // namespace

CartMesh refine_cells(const CartMesh& m, const geom::TriSurface* surface,
                      const std::vector<bool>& flags, SfcKind sfc,
                      real_t min_fluid_frac) {
  COLUMBIA_REQUIRE(flags.size() == m.cells.size());

  CartMesh out;
  out.domain = m.domain;
  out.base_n = m.base_n;
  out.max_level = m.max_level;

  // Deepen the unit lattice if any flagged cell already sits at max_level.
  bool deepen = false;
  for (std::size_t i = 0; i < m.cells.size(); ++i)
    if (flags[i] && int(m.cells[i].level) == m.max_level) deepen = true;
  const int shift = deepen ? 1 : 0;
  if (deepen) {
    out.max_level = m.max_level + 1;
    COLUMBIA_REQUIRE(out.max_level <= 7);
    COLUMBIA_REQUIRE((std::uint64_t(out.base_n) << out.max_level) <=
                     (1u << 20));
  }

  std::vector<Proto> active;
  active.reserve(m.cells.size() + 8);
  for (std::size_t i = 0; i < m.cells.size(); ++i) {
    Proto p;
    p.anchor = {m.cells[i].anchor[0] << shift, m.cells[i].anchor[1] << shift,
                m.cells[i].anchor[2] << shift};
    p.level = m.cells[i].level;
    if (flags[i])
      split_into(p, out.max_level, active);
    else
      active.push_back(p);
  }

  // Restore 2:1 balance (same fixed-point sweep as the initial build).
  bool changed = true;
  while (changed) {
    changed = false;
    std::unordered_map<std::uint64_t, index_t> at;
    at.reserve(active.size() * 2);
    for (std::size_t i = 0; i < active.size(); ++i)
      at[pack(active[i].level, active[i].anchor)] = index_t(i);
    const std::int64_t n_fine =
        std::int64_t(std::uint32_t(out.base_n) << out.max_level);

    std::vector<bool> split(active.size(), false);
    for (const Proto& p : active) {
      if (p.level < 2) continue;
      const std::int64_t span = 1 << (out.max_level - p.level);
      for (int axis = 0; axis < 3; ++axis)
        for (int dir = -1; dir <= 1; dir += 2) {
          std::array<std::int64_t, 3> q = {p.anchor[0], p.anchor[1],
                                           p.anchor[2]};
          q[std::size_t(axis)] += dir > 0 ? span : -1;
          if (q[std::size_t(axis)] < 0 || q[std::size_t(axis)] >= n_fine)
            continue;
          for (int lc = int(p.level) - 2; lc >= -8; --lc) {
            const std::uint32_t cspan = 1u << (out.max_level - lc);
            const std::array<std::uint32_t, 3> aligned = {
                std::uint32_t(q[0]) / cspan * cspan,
                std::uint32_t(q[1]) / cspan * cspan,
                std::uint32_t(q[2]) / cspan * cspan};
            const auto it = at.find(pack(lc, aligned));
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
      if (split[i])
        split_into(active[i], out.max_level, next);
      else
        next.push_back(active[i]);
    }
    active = std::move(next);
  }

  // Classify against the surface (cut flags, fluid fractions, wall areas)
  // exactly as the initial build does.
  std::optional<CutCellClassifier> classifier;
  if (surface != nullptr) classifier.emplace(*surface);
  for (const Proto& p : active) {
    CartCell c;
    c.anchor = p.anchor;
    c.level = p.level;
    if (classifier &&
        !classifier->classify(c, out.cell_box(c), 3, min_fluid_frac))
      continue;  // solid
    out.cells.push_back(c);
  }

  sort_cells_by_sfc(out, sfc);
  build_faces(out);
  return out;
}

std::vector<bool> flag_by_density_jump(const CartMesh& m,
                                       std::span<const euler::Cons> solution,
                                       real_t fraction) {
  COLUMBIA_REQUIRE(solution.size() == m.cells.size());
  COLUMBIA_REQUIRE(fraction > 0 && fraction <= 1);
  std::vector<real_t> indicator(m.cells.size(), 0.0);
  for (const CartFace& f : m.faces) {
    if (f.right == kInvalidIndex) continue;
    const real_t jump = std::abs(solution[std::size_t(f.left)][0] -
                                 solution[std::size_t(f.right)][0]);
    indicator[std::size_t(f.left)] =
        std::max(indicator[std::size_t(f.left)], jump);
    indicator[std::size_t(f.right)] =
        std::max(indicator[std::size_t(f.right)], jump);
  }
  std::vector<real_t> sorted = indicator;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t cut_idx =
      std::size_t(real_t(sorted.size()) * (1.0 - fraction));
  const real_t threshold =
      sorted[std::min(cut_idx, sorted.size() - 1)];
  std::vector<bool> flags(m.cells.size(), false);
  for (std::size_t i = 0; i < flags.size(); ++i)
    flags[i] = indicator[i] > threshold && indicator[i] > 0;
  return flags;
}

}  // namespace columbia::cartesian
