// Domain decomposition for the multigrid hierarchy.
//
// Paper Sec. III: each fine and coarse agglomerated level's adjacency graph
// is partitioned independently (METIS in the paper; graph::partition here),
// with the fine-level graph contracted along implicit lines so no line is
// ever broken across a partition boundary (Fig. 6b). Coarse partitions are
// then relabeled to maximally overlap the fine partitions. Edges straddling
// partitions get ghost vertices (Fig. 6a); the halo exchange packs all
// values destined for one neighbor into a single message.
//
// The same analysis produces, for every level, the work and inter-grid
// quantities the Columbia machine model consumes; halo sizes and the
// communication-graph degree are read off the core::ExchangePlan of
// halo_requests (perf::stats_from_plan).
#pragma once

#include <vector>

#include "core/exchange_plan.hpp"
#include "nsu3d/level.hpp"
#include "nsu3d/solver.hpp"

namespace columbia::nsu3d {

/// Per-level communication/work statistics for a P-way decomposition.
struct LevelDecomposition {
  index_t nparts = 0;
  std::vector<index_t> part;      // per node
  real_t max_part_nodes = 0;
  real_t avg_part_nodes = 0;
  index_t empty_parts = 0;        // paper Sec. VI: occurs on coarse levels
  /// Inter-grid transfer to the next coarser level: number of fine nodes
  /// whose agglomerate lives on another partition (paper: degree <= 19).
  real_t intergrid_items = 0;       // total across partitions
  real_t max_intergrid_items = 0;   // busiest partition
  index_t intergrid_degree = 0;
};

struct PartitionPlan {
  index_t nparts = 0;
  std::vector<LevelDecomposition> levels;
};

/// Partitions every level of the hierarchy for `nparts` processors.
PartitionPlan build_partition_plan(const std::vector<Level>& levels,
                                   index_t nparts, std::uint64_t seed = 1);

/// Verifies that no implicit line of the fine level is split by the plan.
bool lines_unbroken(const Level& fine, std::span<const index_t> part);

/// Ghost-state request lists of a level decomposition: for each partition,
/// the unique cross-partition edge endpoints it needs each exchange,
/// sorted by (owner, node) for deterministic packing. `item` is the
/// global node id (callers that exchange packed per-partition arrays
/// remap items onto their own slot layout).
core::RequestLists halo_requests(const Level& lvl,
                                 std::span<const index_t> part,
                                 index_t nparts);

/// Parallel first-order residual evaluation: partitions owned nodes per
/// rank, fetches ghost states through a core::ExchangePlan (one packed
/// message per neighbor pair, as in the paper), accumulates edge fluxes
/// rank-local on the thread pool, then returns ghost contributions
/// through a second plan. Used to validate the halo machinery: the result
/// must match the serial residual bit-for-bit up to summation order, with
/// either exchange strategy and with halo fault injection on or off.
///
/// The per-rank edge loop is split at plan-build time into interior edges
/// (both endpoints owned — no ghost state touched) and boundary edges
/// (halo-adjacent), always run interior-first. With `overlap` set, the
/// ghost exchange flies under the interior loop (post → interior compute →
/// finish → boundary compute) and the contribution return flies under the
/// owned-row assembly. Both modes execute the identical floating-point
/// sequence — only the moment the wire completes differs — so overlap
/// on/off results are bit-identical by construction (DESIGN.md, "The
/// interior/boundary split invariant").
std::vector<State> parallel_residual(const Level& lvl,
                                     const std::vector<State>& u,
                                     const euler::Prim& freestream,
                                     std::span<const index_t> part,
                                     index_t nparts,
                                     const core::ExchangePlanOptions& comm = {},
                                     bool overlap = false);

}  // namespace columbia::nsu3d
