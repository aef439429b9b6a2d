// Adapters: turn measured decompositions of the two solvers' multigrid
// hierarchies into MachineModel level loads.
//
// The paper's runs put 72M points (NSU3D) / 25M cells (Cart3D) on up to
// ~2000 CPUs; the in-repo meshes are thousands of times smaller. Partition
// statistics (imbalance, halo size, communication degree, inter-grid
// crossing fraction) depend on the *granularity* — items per partition —
// not on the global problem size. The load models therefore measure each
// hierarchy level at the partition count P' that reproduces the target
// run's items-per-partition, and then rescale the per-partition work to
// the target granularity. Measurement is cached per (level, P').
#pragma once

#include <map>
#include <span>
#include <vector>

#include "cart3d/solver.hpp"
#include "cartesian/coarsen.hpp"
#include "core/exchange_plan.hpp"
#include "core/params.hpp"
#include "nsu3d/partitioned.hpp"
#include "perf/columbia.hpp"

namespace columbia::perf {

/// Kernel-cost constants. FLOPs per item per level visit are calibrated
/// against the paper's own arithmetic (EXPERIMENTS.md): NSU3D's 2.8 TFLOP/s
/// x 1.95 s/cycle over ~84M weighted node-visits of the 72M-point six-level
/// W-cycle gives ~65 kFLOPs per node-visit.
struct KernelCosts {
  real_t flops_per_item = 65000;
  real_t bytes_per_item = 2000;
  real_t halo_bytes_per_item = 48;  // six doubles per ghost node
  /// Fraction of crossing items actually moved by restriction and
  /// prolongation. NSU3D transfers per-fine-node data (1.0); Cart3D's
  /// piecewise-constant transfers move one value per coarse cell (~1/8
  /// of the crossing fine cells).
  real_t intergrid_weight = 1.0;
};

inline KernelCosts nsu3d_costs() { return {65000, 2000, 48, 1.0}; }
inline KernelCosts cart3d_costs() { return {10000, 600, 40, 0.15}; }

/// Per-level, per-granularity partition measurements.
struct MeasuredStats {
  real_t imbalance = 1.0;        // max part items / avg
  real_t max_halo_items = 0;     // at the measured granularity
  index_t comm_neighbors = 0;
  real_t intergrid_fraction = 0; // crossing items / part items
  index_t intergrid_neighbors = 0;
  real_t measured_avg_items = 1; // items per part in the measurement
};

/// Shared converter from a halo ExchangePlan to the communication fields
/// of a MeasuredStats: busiest-partition ghost count and communication
/// degree. Both load models feed their decomposition's plan through this,
/// so the perf model and the schedule the solvers actually execute can
/// never disagree about halo volume.
MeasuredStats stats_from_plan(const core::ExchangePlan& plan);

/// Load model for the NSU3D hierarchy.
class Nsu3dLoadModel {
 public:
  /// `scale` multiplies every level's node count to reach the target
  /// problem size (72M / fine_nodes for the paper's case).
  Nsu3dLoadModel(std::vector<nsu3d::Level> levels, real_t scale,
                 KernelCosts costs = nsu3d_costs());

  /// Loads for P MPI processes using the first `use_levels` levels
  /// (-1 = all); `visits` gives the per-level cycle multiplicities.
  /// `first_level` skips finer levels (Fig. 19 runs a coarse grid alone).
  std::vector<LevelLoad> loads(index_t nparts,
                               std::span<const index_t> visits,
                               int use_levels = -1, int first_level = 0);

  int num_levels() const { return int(levels_.size()); }
  real_t scaled_nodes(int level) const {
    return real_t(levels_[std::size_t(level)].num_nodes) * scale_;
  }

 private:
  std::vector<nsu3d::Level> levels_;
  real_t scale_;
  KernelCosts costs_;
  std::map<std::pair<int, index_t>, MeasuredStats> cache_;

  MeasuredStats measure(int level, index_t nparts);
};

/// Load model for a Cart3D hierarchy (SFC partitions, cut weight 2.1).
class Cart3dLoadModel {
 public:
  Cart3dLoadModel(const cartesian::CartHierarchy& h, real_t scale,
                  KernelCosts costs = cart3d_costs());

  std::vector<LevelLoad> loads(index_t nparts,
                               std::span<const index_t> visits,
                               int use_levels = -1);

  int num_levels() const { return int(h_->levels.size()); }
  real_t scaled_cells(int level) const {
    return real_t(h_->levels[std::size_t(level)].num_cells()) * scale_;
  }

 private:
  const cartesian::CartHierarchy* h_;
  real_t scale_;
  KernelCosts costs_;
  std::map<std::pair<int, index_t>, MeasuredStats> cache_;

  MeasuredStats measure(int level, index_t nparts);
};

}  // namespace columbia::perf
