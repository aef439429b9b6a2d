#include "perf/columbia.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"

namespace columbia::perf {

FabricModel numalink4() {
  // Paper Sec. II: NUMAlink4 peak 6.4 GB/s; microbenchmarks of ref. [4]
  // show ~1 us MPI latency and robust bandwidth under random-ring traffic.
  return FabricModel{"NUMAlink4", 1.1e-6, 3.2e9, 2.0e9, {0, 1.0, 1.0, 0.95, 0.9}};
}

FabricModel infiniband() {
  // Ref. [4]: InfiniBand delivers good nearest-neighbor bandwidth inside a
  // box but degrades across boxes, and collapses by orders of magnitude
  // for random-ring (scattered) communication patterns — the paper's
  // explanation for the multigrid inter-grid transfer penalty.
  return FabricModel{"InfiniBand", 8.0e-6, 0.9e9, 0.024e9,
                     {0, 1.0, 0.65, 0.55, 0.45}};
}

FabricModel shared_memory() {
  // Pure OpenMP within one cache-coherent box.
  return FabricModel{"shared", 2.0e-7, 3.2e9, 1.0e9, {0, 1.0, 1.0, 1.0, 1.0}};
}

index_t max_mpi_processes_infiniband(int nodes) {
  COLUMBIA_REQUIRE(nodes >= 1);
  if (nodes <= 1) return 1 << 30;  // no box-to-box IB traffic: unlimited
  // Eq. (1): #MPI <= sqrt(n/(n-1) * C) with C the per-box connection
  // capacity. The paper's practical statement (1524 processes on four
  // boxes) anchors C = 1524^2 * 3/4 = 1,741,932 connections.
  const real_t c = 1741932.0;
  const real_t n = real_t(nodes);
  return index_t(std::floor(std::sqrt(n / (n - 1) * c)));
}

real_t MachineModel::cpu_rate(real_t working_set_bytes,
                              const HybridLayout& layout) const {
  real_t rate = cfg_.clock_hz * cfg_.flops_per_cycle * cfg_.sustained_fraction;
  // Cache effect: smaller per-CPU working sets run faster (superlinear
  // speedups of Fig. 14b).
  const real_t ws = std::max(working_set_bytes, real_t(1e3));
  rate *= 1.0 + cfg_.cache_slope * std::log2(cfg_.cache_ref_bytes / ws);
  // Pure-OpenMP coarse-mode pointer penalty beyond 128 CPUs (Fig. 20).
  if (layout.fabric == Interconnect::SharedMemory && layout.total_cpus > 128)
    rate *= 1.0 - cfg_.coarse_mode_penalty;
  return rate;
}

CycleTime MachineModel::cycle_time(const std::vector<LevelLoad>& loads,
                                   const HybridLayout& layout) const {
  COLUMBIA_REQUIRE(layout.total_cpus >= 1);
  COLUMBIA_REQUIRE(layout.omp_threads_per_mpi >= 1);
  const int span = layout.nodes_override > 0
                       ? std::min(4, layout.nodes_override)
                       : std::min(4, nodes_spanned(layout.total_cpus));
  // Within a single box there is no box-to-box traffic: MPI rides the
  // cache-coherent shared memory regardless of the configured fabric
  // (paper Sec. VII: "from 32-496 CPUs ... there is no difference between
  // the two curves").
  FabricModel fabric =
      layout.fabric == Interconnect::NumaLink4
          ? numalink4()
          : (layout.fabric == Interconnect::InfiniBand ? infiniband()
                                                       : shared_memory());
  if (span <= 1 && layout.fabric == Interconnect::InfiniBand)
    fabric = numalink4();
  const real_t bw = fabric.bandwidth_Bps * fabric.node_span_factor[std::size_t(span)];
  // Scattered (random-ring) traffic shares a roughly fixed aggregate
  // bisection: the per-process slice shrinks as processes grow (ref. [4]
  // measures exactly this collapse for InfiniBand).
  const real_t scatter_share =
      128.0 / std::max<real_t>(128.0, real_t(layout.mpi_processes()));
  const real_t scatter_bw = fabric.scatter_bandwidth_Bps *
                            fabric.node_span_factor[std::size_t(span)] *
                            scatter_share;

  const index_t threads = layout.omp_threads_per_mpi;
  // Intra-process OpenMP efficiency (Fig. 15 anchors).
  const real_t omp_eff =
      1.0 / (1.0 + cfg_.omp_quad_overhead * real_t((threads - 1) * (threads - 1)));
  // Master-thread communication (Fig. 7b): while MPI messages are issued,
  // the other threads idle for the non-overlapped part of the exchange.
  const real_t master_penalty = 1.0 + 0.25 * real_t(threads - 1);

  CycleTime out;
  for (const LevelLoad& load : loads) {
    const real_t visits = real_t(load.visits_per_cycle);
    // Compute: busiest partition / (threads x per-CPU rate).
    const real_t ws = load.max_work_items * load.bytes_per_item /
                      real_t(threads);
    const real_t rate = cpu_rate(ws, layout);
    const real_t comp = load.max_work_items * load.flops_per_item /
                        (real_t(threads) * rate * omp_eff);
    out.compute_s += visits * comp;

    // Per-visit synchronization overhead (scales with process count).
    out.halo_s += visits * cfg_.sync_per_visit_s *
                  std::log(std::max<real_t>(2.0, real_t(layout.mpi_processes())));

    // Halo exchange: one packed message per neighbor per phase.
    const real_t msg_bytes = load.max_halo_items * load.halo_bytes_per_item;
    const real_t halo =
        real_t(load.exchanges_per_visit) *
        (real_t(load.comm_neighbors) * fabric.latency_s + msg_bytes / bw) *
        master_penalty;
    out.halo_s += visits * halo;

    // Inter-grid transfer (restriction + prolongation once per visit):
    // scattered traffic runs at the fabric's random-ring bandwidth.
    if (load.intergrid_items > 0) {
      const real_t ig_bytes = load.intergrid_items * load.halo_bytes_per_item;
      const real_t ig =
          2.0 * (real_t(load.intergrid_neighbors) * fabric.latency_s +
                 ig_bytes / std::max(scatter_bw, real_t(1.0))) *
          master_penalty;
      out.intergrid_s += visits * ig;
    }

    // Whole-machine FLOPs: busiest-partition work x process count is a
    // tight upper estimate of the total (partitions are balanced).
    out.flops += visits * load.max_work_items * load.flops_per_item *
                 real_t(layout.mpi_processes());
  }
  out.total_s = out.compute_s + out.halo_s + out.intergrid_s;
  return out;
}

real_t MachineModel::speedup(const std::vector<LevelLoad>& loads,
                             const HybridLayout& layout,
                             const std::vector<LevelLoad>& ref_loads,
                             const HybridLayout& ref_layout) const {
  const real_t t = cycle_time(loads, layout).total_s;
  const real_t t_ref = cycle_time(ref_loads, ref_layout).total_s;
  if (t <= 0) return 0;
  return real_t(ref_layout.total_cpus) * t_ref / t;
}

}  // namespace columbia::perf
