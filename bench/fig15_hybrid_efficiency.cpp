// Figure 15: relative parallel efficiency of the 72M-point six-level
// multigrid case on 128 processors spread over four Columbia boxes, for
// NUMAlink vs InfiniBand and 1/2/4 OpenMP threads per MPI process.
//
// Paper anchors: NUMAlink 2 threads 98.4%, 4 threads 87.2%; InfiniBand
// pure-MPI 95.7%, with the 4-thread hybrid on a par with NUMAlink.
#include <cstdio>

#include "bench_util.hpp"

using namespace columbia;

int main(int argc, char** argv) {
  bench::banner("Fig 15 — hybrid MPI/OpenMP efficiency at 128 CPUs",
                "six-level multigrid, NUMAlink vs InfiniBand, 1/2/4 threads");
  bench::Reporter rep(argc, argv, "fig15_hybrid_efficiency");

  const auto fx = bench::Nsu3dFixture::make(6);
  auto lm = fx.load_model();
  perf::MachineModel model;
  const int use = std::min(6, lm.num_levels());
  const auto visits = core::cycle_visits(use, core::CycleType::W);

  // Baseline: pure MPI on NUMAlink, 128 CPUs.
  perf::HybridLayout base;
  base.total_cpus = 128;
  base.fabric = perf::Interconnect::NumaLink4;
  const real_t t_base =
      model.cycle_time(lm.loads(128, visits, use), base).total_s;
  std::printf("baseline cycle time (NUMAlink, pure MPI): %.2f s "
              "(paper: 31.3 s)\n\n", t_base);

  Table t({"fabric", "OMP threads", "MPI procs", "cycle (s)",
           "rel. efficiency", "paper"});
  struct Case {
    perf::Interconnect fabric;
    index_t threads;
    const char* paper;
  };
  const Case cases[] = {
      {perf::Interconnect::NumaLink4, 1, "1.000"},
      {perf::Interconnect::NumaLink4, 2, "0.984"},
      {perf::Interconnect::NumaLink4, 4, "0.872"},
      {perf::Interconnect::InfiniBand, 1, "0.957"},
      {perf::Interconnect::InfiniBand, 2, "~0.95"},
      {perf::Interconnect::InfiniBand, 4, "~0.88 (beats NUMAlink)"},
  };
  for (const Case& c : cases) {
    perf::HybridLayout lay;
    lay.total_cpus = 128;
    lay.omp_threads_per_mpi = c.threads;
    lay.fabric = c.fabric;
    lay.nodes_override = 4;  // "128 processors distributed over four nodes" 
    const auto loads = lm.loads(lay.mpi_processes(), visits, use);
    const real_t tt = model.cycle_time(loads, lay).total_s;
    t.add_row({c.fabric == perf::Interconnect::NumaLink4 ? "NUMAlink4"
                                                         : "InfiniBand",
               std::to_string(c.threads), std::to_string(lay.mpi_processes()),
               Table::num(tt, 2), Table::num(t_base / tt, 3), c.paper});
  }
  t.print();
  rep.table("efficiency", t);

  std::printf(
      "\npaper shape check: modest degradation with threads (quadratic in\n"
      "T), InfiniBand within a few percent of NUMAlink at this CPU count.\n");
  return 0;
}
