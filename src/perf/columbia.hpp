// Analytic performance model of the NASA Columbia supercomputer.
//
// The scaling studies of the paper ran on 2048 CPUs of Columbia (four SGI
// Altix 3700BX2 nodes, Sec. II). This model reproduces those studies from
// first principles plus a small set of documented calibration constants:
//
//   time/cycle = sum over multigrid levels of
//     visits x [ max-partition work / effective CPU rate
//                + halo exchanges (latency + payload/bandwidth)
//                + inter-grid transfer (scattered traffic) ]
//
// The work, halo, neighbor-degree and inter-grid quantities are *measured*
// from real partitionings produced by this repository's partitioners; the
// machine constants come from the paper (clock, FLOPS/cycle, NUMAlink4
// bandwidth, eq. (1) connection limit) and from its reference [4] (the
// InfiniBand random-ring collapse that the paper blames for the multigrid
// degradation). Calibration anchors are listed in EXPERIMENTS.md.
#pragma once

#include <vector>

#include "support/types.hpp"

namespace columbia::perf {

enum class Interconnect { NumaLink4, InfiniBand, SharedMemory };

/// Altix 3700BX2 node facts (paper Sec. II) + model calibration constants.
struct MachineConfig {
  int cpus_per_node = 512;
  int num_nodes = 20;
  real_t clock_hz = 1.6e9;
  real_t flops_per_cycle = 4;      // up to 4 FLOPS/cycle (2 MADDs)
  real_t l3_bytes = 9.0 * 1024 * 1024;
  real_t mem_per_cpu_bytes = 2.0 * real_t(1u << 30);

  /// Sustained fraction of peak for these CFD codes: the paper measures
  /// ~1.4-1.5 GFLOP/s per CPU (6.4 GF peak).
  real_t sustained_fraction = 0.24;
  /// Cache model: per-CPU rate multiplier 1 + slope*log2(ref/ws), i.e.
  /// smaller partitions run faster (the paper's superlinear speedups).
  real_t cache_slope = 0.03;
  real_t cache_ref_bytes = 1.0e9;
  /// Hybrid OpenMP efficiency: 1/(1 + c (T-1)^2); calibrated to the
  /// paper's Fig. 15 anchors (98.4% at T=2, 87.2% at T=4).
  real_t omp_quad_overhead = 0.0155;
  /// OpenMP "coarse mode" addressing penalty beyond 128 CPUs in one node
  /// (paper Sec. VII, Fig. 20 slope break).
  real_t coarse_mode_penalty = 0.035;
  /// Per-level-visit synchronization/software overhead, scaling with
  /// ln(processes): collective progress, MPI call overheads and load
  /// imbalance on levels that "contain minimal amounts of computational
  /// work, but span the same number of processors" (paper Sec. VI). This
  /// term produces the NUMAlink multigrid roll-off of Figs. 14b/21.
  real_t sync_per_visit_s = 8.0e-4;
};

/// Interconnect fabric: point-to-point latency/bandwidth plus the
/// scattered-traffic (random-ring) bandwidth of the paper's reference [4].
struct FabricModel {
  const char* name;
  real_t latency_s;
  real_t bandwidth_Bps;          // well-formed neighbor exchanges
  real_t scatter_bandwidth_Bps;  // random-ring / inter-grid traffic
  /// Bandwidth multiplier by number of Altix boxes spanned (index 1..4).
  real_t node_span_factor[5];
};

FabricModel numalink4();
FabricModel infiniband();
FabricModel shared_memory();

/// Eq. (1): the InfiniBand MPI-connection limit. For n >= 2 Altix boxes the
/// card connection table bounds the number of MPI processes; the paper's
/// practical statement — at most 1524 MPI processes on four boxes — anchors
/// the constant.
index_t max_mpi_processes_infiniband(int nodes);

/// How the CPUs are used (paper Sec. III: pure MPI, pure OpenMP, hybrid).
struct HybridLayout {
  index_t total_cpus = 1;
  index_t omp_threads_per_mpi = 1;
  Interconnect fabric = Interconnect::NumaLink4;
  /// Boxes the job actually spans (0 = minimal). The paper deliberately
  /// spread some runs: e.g. the 508-CPU Cart3D case ran across two boxes.
  int nodes_override = 0;

  index_t mpi_processes() const { return total_cpus / omp_threads_per_mpi; }
};

/// Per-multigrid-level load, measured from a real decomposition at MPI
/// process granularity.
struct LevelLoad {
  real_t max_work_items = 0;    // busiest partition (nodes or cells)
  real_t max_halo_items = 0;    // values exchanged by the busiest partition
  index_t comm_neighbors = 0;   // messages per halo exchange
  real_t intergrid_items = 0;   // busiest partition's off-part transfer
  index_t intergrid_neighbors = 0;
  index_t visits_per_cycle = 1;
  real_t flops_per_item = 65000;   // per item per visit (calibrated)
  real_t bytes_per_item = 2000;    // resident working set per item
  real_t halo_bytes_per_item = 48; // message payload per halo value
  int exchanges_per_visit = 2;     // residual + update (paper Sec. III)
};

struct CycleTime {
  real_t compute_s = 0;
  real_t halo_s = 0;
  real_t intergrid_s = 0;
  real_t total_s = 0;
  real_t flops = 0;  // per cycle, whole machine

  real_t tflops() const { return total_s > 0 ? flops / total_s / 1e12 : 0; }
};

class MachineModel {
 public:
  explicit MachineModel(const MachineConfig& cfg = {}) : cfg_(cfg) {}

  const MachineConfig& config() const { return cfg_; }

  /// Predicted wall-clock for one multigrid cycle under the given layout.
  CycleTime cycle_time(const std::vector<LevelLoad>& loads,
                       const HybridLayout& layout) const;

  /// Parallel speedup vs a reference layout, assuming the reference is
  /// assigned ideal speedup = its CPU count (paper convention).
  real_t speedup(const std::vector<LevelLoad>& loads,
                 const HybridLayout& layout,
                 const std::vector<LevelLoad>& ref_loads,
                 const HybridLayout& ref_layout) const;

  int nodes_spanned(index_t cpus) const {
    return int((cpus + cfg_.cpus_per_node - 1) / cfg_.cpus_per_node);
  }

 private:
  MachineConfig cfg_;
  real_t cpu_rate(real_t working_set_bytes, const HybridLayout& layout) const;
};

}  // namespace columbia::perf
