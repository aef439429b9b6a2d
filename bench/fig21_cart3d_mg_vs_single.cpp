// Figure 21: Cart3D parallel speedup across four Columbia nodes on
// NUMAlink, 32-2016 CPUs, comparing the baseline 4-level multigrid with
// the single-grid scheme on the 25M-cell SSLV case.
//
// Paper shape: single grid nearly ideal (~1900 at 2016 CPUs); multigrid
// rolls off above ~1024 CPUs to ~1585 (only ~16 coarsest-level cells per
// partition at 2016 CPUs); NUMAlink 4-level posts ~2.4 TFLOP/s at 2016.
#include <cstdio>

#include "bench_util.hpp"

using namespace columbia;

int main(int argc, char** argv) {
  bench::banner("Fig 21 — Cart3D multigrid vs single grid (NUMAlink)",
                "25M-cell SSLV, 32-2016 CPUs");
  bench::Reporter rep(argc, argv, "fig21_cart3d_mg_vs_single");

  const auto fx = bench::Cart3dFixture::make(4);
  auto lm = fx.load_model();
  perf::MachineModel model;

  perf::HybridLayout ref;
  ref.total_cpus = 32;
  ref.fabric = perf::Interconnect::NumaLink4;

  const auto visits_mg =
      core::cycle_visits(lm.num_levels(), core::CycleType::W);
  const std::vector<index_t> visits_1{1};
  const auto ref_mg = lm.loads(32, visits_mg);
  const auto ref_1 = lm.loads(32, visits_1, 1);

  Table t({"CPUs", "sp(4-level MG)", "sp(single)", "TF(MG)"});
  for (index_t P : bench::cart3d_cpu_series()) {
    perf::HybridLayout lay;
    lay.total_cpus = P;
    lay.fabric = perf::Interconnect::NumaLink4;
    const auto mg = lm.loads(P, visits_mg);
    const auto single = lm.loads(P, visits_1, 1);
    t.add_row({std::to_string(P),
               Table::num(model.speedup(mg, lay, ref_mg, ref), 0),
               Table::num(model.speedup(single, lay, ref_1, ref), 0),
               Table::num(model.cycle_time(mg, lay).tflops(), 2)});
  }
  t.print();
  rep.table("speedup", t);

  // The coarse-grid starvation the paper quotes: cells/partition at 2016.
  std::printf("\ncoarsest level: %.3g cells scaled -> %.1f cells/partition "
              "at 2016 CPUs (paper: ~16)\n",
              lm.scaled_cells(lm.num_levels() - 1),
              lm.scaled_cells(lm.num_levels() - 1) / 2016.0);
  std::printf(
      "paper shape check: single grid ~ideal; multigrid rolls off beyond\n"
      "~1024 CPUs; ~2.4 TFLOP/s for 4-level multigrid at 2016 CPUs.\n");
  return 0;
}
