// Figure 14(b) + Sec. VI anchors: NSU3D parallel speedup and computational
// rate on 128-2008 CPUs of Columbia (NUMAlink4), for the single grid and
// the 4/5/6-level multigrid W-cycles on the 72M-point mesh.
//
// Paper values at 2008 CPUs: speedups 2395 (single), 2250 (4-level),
// 2044 (6-level); rates 3.4 / 3.1 / 2.95 / 2.8 TFLOP/s for single/4/5/6
// levels; 1.95 s per 6-level cycle.
#include <cstdio>

#include "bench_util.hpp"

using namespace columbia;

int main(int argc, char** argv) {
  bench::banner("Fig 14b — NSU3D scalability on Columbia (machine model)",
                "speedup + TFLOP/s vs CPUs, NUMAlink4, 72M-point problem");
  bench::Reporter rep(argc, argv, "fig14b_nsu3d_scalability");

  const auto fx = bench::Nsu3dFixture::make(6);
  std::printf("in-repo mesh %d points; hierarchy:", fx.mesh.num_points());
  for (const auto& l : fx.levels) std::printf(" %d", l.num_nodes);
  std::printf("  (scaled x%.0f to 72M)\n\n", fx.scale);

  auto lm = fx.load_model();
  perf::MachineModel model;
  perf::HybridLayout ref;
  ref.total_cpus = 128;
  ref.fabric = perf::Interconnect::NumaLink4;
  ref.nodes_override = 4;  // all NSU3D runs span the four BX2 boxes

  const int variants[] = {1, 4, 5, 6};
  Table t({"CPUs", "sp(single)", "sp(4-lvl)", "sp(5-lvl)", "sp(6-lvl)",
           "TF(single)", "TF(4)", "TF(5)", "TF(6)"});
  for (index_t P : bench::nsu3d_cpu_series()) {
    std::vector<std::string> row{std::to_string(P)};
    std::vector<std::string> tf;
    for (int nl : variants) {
      const int use = std::min(nl, lm.num_levels());
      const auto visits = core::cycle_visits(use, core::CycleType::W);
      auto loads = lm.loads(P, visits, use);
      auto ref_loads = lm.loads(128, visits, use);
      perf::HybridLayout lay = ref;
      lay.total_cpus = P;
      row.push_back(Table::num(model.speedup(loads, lay, ref_loads, ref), 0));
      tf.push_back(Table::num(model.cycle_time(loads, lay).tflops(), 2));
    }
    row.insert(row.end(), tf.begin(), tf.end());
    t.add_row(row);
  }
  t.print();
  rep.table("scalability", t);

  // Sec. VI wall-clock anchor.
  {
    const auto visits =
        core::cycle_visits(std::min(6, lm.num_levels()), core::CycleType::W);
    perf::HybridLayout lay;
    lay.total_cpus = 2008;
    const auto ct =
        model.cycle_time(lm.loads(2008, visits, std::min(6, lm.num_levels())), lay);
    std::printf("\n6-level W-cycle at 2008 CPUs: %.2f s/cycle "
                "(paper: 1.95 s); %.2f TFLOP/s (paper: 2.8)\n",
                ct.total_s, ct.tflops());
    std::printf("800 cycles -> %.0f min wall clock (paper: <30 min incl. I/O)\n",
                800.0 * ct.total_s / 60.0);
  }
  std::printf(
      "\npaper shape check: superlinear speedups (cache effect), ordered\n"
      "single > 4-level > 5-level > 6-level in both speedup and TFLOP/s.\n");
  return 0;
}
