#include "perf/loads.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "cart3d/partitioned.hpp"
#include "graph/csr.hpp"
#include "graph/lines.hpp"
#include "graph/partition.hpp"
#include "support/assert.hpp"

namespace columbia::perf {

namespace {

/// Measurement partition counts are clamped so each part keeps at least one
/// item and the partitioner stays fast on the in-repo mesh sizes.
index_t clamp_parts(real_t wanted, index_t items) {
  // At least 8 parts so halo/degree statistics exist even when the target
  // granularity exceeds the in-repo mesh size (the (g/g_meas)^(2/3)
  // surface rescaling extrapolates from the measured granularity); at most
  // items/2 so parts are non-trivial, and 512 to bound partitioner cost.
  const index_t lo = std::min<index_t>(8, std::max<index_t>(1, items / 2));
  const index_t hi = std::max<index_t>(lo, std::min<index_t>(items, 512));
  return std::clamp<index_t>(index_t(std::lround(wanted)), lo, hi);
}

/// Builds a LevelLoad from measured stats at the target granularity.
LevelLoad load_from_stats(const MeasuredStats& st, real_t target_items_per_part,
                          index_t visits, const KernelCosts& costs,
                          bool with_intergrid) {
  LevelLoad load;
  const real_t g = std::max<real_t>(target_items_per_part, 0.0);
  load.max_work_items = std::max<real_t>(1.0, st.imbalance * g);
  // Halo scales with the partition surface: measured halo at measured
  // granularity, rescaled by (g / g_measured)^(2/3).
  const real_t surf =
      std::pow(std::max<real_t>(g, 1.0) / std::max<real_t>(st.measured_avg_items, 1.0),
               2.0 / 3.0);
  load.max_halo_items = st.max_halo_items * surf;
  load.comm_neighbors = st.comm_neighbors;
  if (with_intergrid) {
    // The crossing fraction is a partition-boundary (surface) effect:
    // larger partitions cross proportionally less, so rescale the measured
    // fraction by (g_meas/g)^(1/3).
    const real_t frac =
        st.intergrid_fraction *
        std::pow(std::max<real_t>(st.measured_avg_items, 1.0) /
                     std::max<real_t>(g, 1.0),
                 1.0 / 3.0);
    load.intergrid_items = std::min<real_t>(1.0, frac) *
                           load.max_work_items * costs.intergrid_weight;
    load.intergrid_neighbors = st.intergrid_neighbors;
  }
  load.visits_per_cycle = visits;
  load.flops_per_item = costs.flops_per_item;
  load.bytes_per_item = costs.bytes_per_item;
  load.halo_bytes_per_item = costs.halo_bytes_per_item;
  return load;
}

}  // namespace

MeasuredStats stats_from_plan(const core::ExchangePlan& plan) {
  MeasuredStats st;
  st.max_halo_items = real_t(plan.max_ghost_items());
  st.comm_neighbors = plan.max_neighbors();
  return st;
}

Nsu3dLoadModel::Nsu3dLoadModel(std::vector<nsu3d::Level> levels, real_t scale,
                               KernelCosts costs)
    : levels_(std::move(levels)), scale_(scale), costs_(costs) {
  COLUMBIA_REQUIRE(!levels_.empty() && scale_ > 0);
}

MeasuredStats Nsu3dLoadModel::measure(int level, index_t nparts) {
  const auto key = std::make_pair(level, nparts);
  const auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;

  // Build a two-level slice (level, level+1 if present) and decompose it:
  // the inter-grid crossing fraction needs the matched coarse partition.
  std::vector<nsu3d::Level> slice;
  slice.push_back(levels_[std::size_t(level)]);
  const bool has_coarse = std::size_t(level) + 1 < levels_.size();
  if (has_coarse) slice.push_back(levels_[std::size_t(level) + 1]);
  // to_coarse on the slice's fine level is already set by build_levels.

  const nsu3d::PartitionPlan plan =
      nsu3d::build_partition_plan(slice, nparts, 1234 + std::uint64_t(level));
  const nsu3d::LevelDecomposition& dec = plan.levels[0];

  MeasuredStats st = stats_from_plan(
      core::ExchangePlan(nsu3d::halo_requests(slice[0], dec.part, nparts)));
  st.measured_avg_items = std::max<real_t>(dec.avg_part_nodes, 1e-9);
  st.imbalance = dec.max_part_nodes / st.measured_avg_items;
  if (has_coarse) {
    st.intergrid_fraction =
        dec.max_intergrid_items / std::max<real_t>(dec.max_part_nodes, 1);
    st.intergrid_neighbors = dec.intergrid_degree;
  }
  cache_.emplace(key, st);
  return st;
}

std::vector<LevelLoad> Nsu3dLoadModel::loads(index_t nparts,
                                             std::span<const index_t> visits,
                                             int use_levels, int first_level) {
  const int nl_all = num_levels();
  const int last =
      use_levels < 0 ? nl_all : std::min(nl_all, first_level + use_levels);
  COLUMBIA_REQUIRE(first_level >= 0 && first_level < last);
  COLUMBIA_REQUIRE(index_t(visits.size()) >= index_t(last - first_level));

  std::vector<LevelLoad> loads;
  for (int l = first_level; l < last; ++l) {
    const real_t g = scaled_nodes(l) / real_t(nparts);
    const index_t pprime = clamp_parts(
        real_t(levels_[std::size_t(l)].num_nodes) / std::max<real_t>(g, 1e-9),
        levels_[std::size_t(l)].num_nodes);
    const MeasuredStats st = measure(l, pprime);
    const bool with_ig = l + 1 < last;
    loads.push_back(load_from_stats(st, g,
                                    visits[std::size_t(l - first_level)],
                                    costs_, with_ig));
  }
  return loads;
}

Cart3dLoadModel::Cart3dLoadModel(const cartesian::CartHierarchy& h,
                                 real_t scale, KernelCosts costs)
    : h_(&h), scale_(scale), costs_(costs) {
  COLUMBIA_REQUIRE(!h.levels.empty() && scale > 0);
}

MeasuredStats Cart3dLoadModel::measure(int level, index_t nparts) {
  const auto key = std::make_pair(level, nparts);
  const auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;

  const cartesian::CartMesh& m = h_->levels[std::size_t(level)];
  const auto part = cartesian::partition_cells(m, nparts);

  MeasuredStats st = stats_from_plan(
      core::ExchangePlan(cart3d::halo_requests(m, part, nparts)));
  std::vector<real_t> cells_in(std::size_t(nparts), 0.0);
  for (index_t p : part) cells_in[std::size_t(p)] += 1;
  real_t max_cells = 0;
  for (real_t c : cells_in) max_cells = std::max(max_cells, c);
  st.measured_avg_items =
      std::max<real_t>(real_t(m.num_cells()) / real_t(nparts), 1e-9);
  st.imbalance = max_cells / st.measured_avg_items;

  if (std::size_t(level) + 1 < h_->levels.size()) {
    const auto cpart =
        cartesian::partition_cells(h_->levels[std::size_t(level) + 1], nparts);
    const auto& map = h_->maps[std::size_t(level)];
    std::vector<real_t> crossing(std::size_t(nparts), 0.0);
    std::set<std::pair<index_t, index_t>> pairs;
    for (std::size_t i = 0; i < map.size(); ++i) {
      const index_t fp = part[i];
      const index_t cp = cpart[std::size_t(map[i])];
      if (fp == cp) continue;
      crossing[std::size_t(fp)] += 1;
      pairs.insert({std::min(fp, cp), std::max(fp, cp)});
    }
    real_t max_cross = 0;
    for (real_t c : crossing) max_cross = std::max(max_cross, c);
    st.intergrid_fraction = max_cross / std::max<real_t>(max_cells, 1);
    std::vector<index_t> deg(std::size_t(nparts), 0);
    for (const auto& [a, b] : pairs) {
      ++deg[std::size_t(a)];
      ++deg[std::size_t(b)];
    }
    for (index_t d : deg)
      st.intergrid_neighbors = std::max(st.intergrid_neighbors, d);
  }
  cache_.emplace(key, st);
  return st;
}

std::vector<LevelLoad> Cart3dLoadModel::loads(index_t nparts,
                                              std::span<const index_t> visits,
                                              int use_levels) {
  const int nl_all = num_levels();
  const int last = use_levels < 0 ? nl_all : std::min(nl_all, use_levels);
  COLUMBIA_REQUIRE(index_t(visits.size()) >= index_t(last));

  std::vector<LevelLoad> loads;
  for (int l = 0; l < last; ++l) {
    const real_t g = scaled_cells(l) / real_t(nparts);
    const index_t items = h_->levels[std::size_t(l)].num_cells();
    const index_t pprime =
        clamp_parts(real_t(items) / std::max<real_t>(g, 1e-9), items);
    const MeasuredStats st = measure(l, pprime);
    loads.push_back(load_from_stats(st, g, visits[std::size_t(l)], costs_,
                                    l + 1 < last));
  }
  return loads;
}

}  // namespace columbia::perf
