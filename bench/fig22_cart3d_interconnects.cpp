// Figure 22: Cart3D 4-level multigrid speedup, NUMAlink vs InfiniBand,
// 32-2016 CPUs (pure MPI — the paper's Cart3D has no hybrid build).
//
// Paper shape: identical within one box (32-496 CPUs: no box-to-box
// traffic); InfiniBand lags across two boxes, with the 508-CPU point
// *under-performing* the single-box 496-CPU run; a further drop across
// four boxes; InfiniBand stops at 1524 CPUs (eq. 1).
#include <cstdio>

#include "bench_util.hpp"

using namespace columbia;

int main(int argc, char** argv) {
  bench::banner("Fig 22 — Cart3D 4-level multigrid, NUMAlink vs InfiniBand",
                "25M-cell SSLV, pure MPI, eq. (1) caps InfiniBand at 1524");
  bench::Reporter rep(argc, argv, "fig22_cart3d_interconnects");

  const auto fx = bench::Cart3dFixture::make(4);
  auto lm = fx.load_model();
  perf::MachineModel model;

  perf::HybridLayout ref;
  ref.total_cpus = 32;
  ref.fabric = perf::Interconnect::NumaLink4;
  const auto visits = core::cycle_visits(lm.num_levels(), core::CycleType::W);
  const auto ref_loads = lm.loads(32, visits);

  // The paper's placements: 32-496 on one box, 508-1000 across two,
  // 1024-2016 across four (Sec. VII).
  auto boxes_of = [](index_t P) {
    if (P <= 496) return 1;
    if (P <= 1000) return 2;
    return 4;
  };
  Table t({"CPUs", "boxes", "sp(NUMAlink)", "sp(InfiniBand)"});
  for (index_t P : bench::cart3d_cpu_series()) {
    perf::HybridLayout nl;
    nl.total_cpus = P;
    nl.fabric = perf::Interconnect::NumaLink4;
    nl.nodes_override = boxes_of(P);
    perf::HybridLayout ib = nl;
    ib.fabric = perf::Interconnect::InfiniBand;
    const auto loads = lm.loads(P, visits);
    std::string ib_cell;
    if (P > perf::max_mpi_processes_infiniband(4))
      ib_cell = "n/a (eq.1: >1524)";
    else
      ib_cell = Table::num(model.speedup(loads, ib, ref_loads, ref), 0);
    t.add_row({std::to_string(P), std::to_string(boxes_of(P)),
               Table::num(model.speedup(loads, nl, ref_loads, ref), 0),
               ib_cell});
  }
  t.print();
  rep.table("speedup", t);

  std::printf(
      "\npaper shape check: curves coincide within one box; InfiniBand's\n"
      "508-CPU (two-box) point falls at/below the 496-CPU single-box point;\n"
      "the gap widens on four boxes; InfiniBand column ends at 1524.\n");
  return 0;
}
