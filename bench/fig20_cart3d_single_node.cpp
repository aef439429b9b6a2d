// Figure 20(b): Cart3D scalability on a single 512-CPU Columbia node for
// the 25M-cell SSLV case (4-level multigrid), comparing the OpenMP and MPI
// builds, 32-504 CPUs.
//
// Paper shape: both nearly ideal; the OpenMP curve breaks slope slightly
// at 128 CPUs ("coarse mode" pointer dereferencing beyond a 128-CPU
// double-cabinet); ~0.75 TFLOP/s at 496 CPUs (1.5 GFLOP/s per CPU).
#include <cstdio>

#include "bench_util.hpp"

using namespace columbia;

int main(int argc, char** argv) {
  bench::banner("Fig 20b — Cart3D OpenMP vs MPI on one Columbia node",
                "25M-cell SSLV, 4-level multigrid, 32-504 CPUs");
  bench::Reporter rep(argc, argv, "fig20_cart3d_single_node");

  const auto fx = bench::Cart3dFixture::make(4);
  std::printf("in-repo mesh: %d cells (%d cut); hierarchy:",
              fx.mesh.num_cells(), fx.mesh.num_cut_cells());
  for (const auto& l : fx.hierarchy.levels) std::printf(" %d", l.num_cells());
  std::printf("  (scaled x%.0f to 25M)\n\n", fx.scale);

  auto lm = fx.load_model();
  perf::MachineModel model;
  const int use = lm.num_levels();
  const auto visits = core::cycle_visits(use, core::CycleType::W);

  perf::HybridLayout ref;
  ref.total_cpus = 32;
  ref.fabric = perf::Interconnect::NumaLink4;  // MPI within the node
  const auto ref_loads = lm.loads(32, visits);

  Table t({"CPUs", "sp(MPI)", "sp(OpenMP)", "TF(MPI)"});
  for (index_t P : {32, 64, 96, 128, 192, 256, 384, 496, 504}) {
    perf::HybridLayout mpi;
    mpi.total_cpus = P;
    mpi.fabric = perf::Interconnect::NumaLink4;
    perf::HybridLayout omp;
    omp.total_cpus = P;
    omp.fabric = perf::Interconnect::SharedMemory;
    const auto loads = lm.loads(P, visits);
    t.add_row({std::to_string(P),
               Table::num(model.speedup(loads, mpi, ref_loads, ref), 0),
               Table::num(model.speedup(loads, omp, ref_loads, ref), 0),
               Table::num(model.cycle_time(loads, mpi).tflops(), 3)});
  }
  t.print();
  rep.table("speedup", t);

  std::printf(
      "\npaper shape check: both near-ideal; OpenMP slope break above 128\n"
      "CPUs; ~0.75 TFLOP/s at 496 CPUs.\n");
  return 0;
}
