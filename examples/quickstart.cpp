// Quickstart: inviscid flow over a sphere with the Cart3D-style solver.
//
//   1. build a watertight geometry,
//   2. generate the adapted cut-cell Cartesian mesh around it,
//   3. solve the Euler equations with multigrid,
//   4. integrate surface forces.
//
// Build and run:  ./build/examples/quickstart
// Pass `--trace flow.json` to record solver spans and open the file in
// chrome://tracing or https://ui.perfetto.dev.
#include <cstdio>
#include <cstring>
#include <string>

#include "cart3d/solver.hpp"
#include "geom/components.hpp"
#include "obs/obs.hpp"
#include "obs/shard.hpp"
#include "smp/pool.hpp"

using namespace columbia;

int main(int argc, char** argv) {
  std::string trace_path;
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], "--trace") == 0) trace_path = argv[i + 1];
  if (!trace_path.empty()) obs::set_enabled(true);

  // 1. Geometry: a unit-diameter sphere (any watertight TriSurface works;
  //    see geom/components.hpp for wings, bodies and full assemblies).
  const geom::TriSurface sphere = geom::make_sphere({0, 0, 0}, 0.5, 24, 48);
  std::printf("geometry: %d triangles, watertight=%s\n",
              sphere.num_triangles(),
              sphere.is_watertight() ? "yes" : "no");

  // 2. Mesh: adapted Cartesian grid with embedded boundaries.
  geom::Aabb domain;
  domain.expand({-2, -2, -2});
  domain.expand({2, 2, 2});
  cartesian::CartMeshOptions mesh_opt;
  mesh_opt.base_n = 8;
  mesh_opt.max_level = 2;
  const cartesian::CartMesh mesh =
      cartesian::build_cart_mesh(sphere, domain, mesh_opt);
  std::printf("mesh: %d cells (%d cut), %zu faces\n", mesh.num_cells(),
              mesh.num_cut_cells(), mesh.faces.size());

  // 3. Flow solution: Mach 0.3 at 2 degrees angle of attack.
  euler::FlowConditions conditions;
  conditions.mach = 0.3;
  conditions.alpha_deg = 2.0;
  cart3d::SolverOptions solver_opt;
  solver_opt.mg_levels = 3;
  solver_opt.cfl = 1.2;
  cart3d::Cart3DSolver solver(mesh, conditions, solver_opt);
  const std::vector<real_t> history = solver.solve(150, 4);
  std::printf("converged %zu cycles: residual %.3e -> %.3e (%.1f orders)\n",
              history.size() - 1, history.front(), history.back(),
              -std::log10(history.back() / history.front()));

  // 4. Aerodynamic forces from the embedded surface.
  const cart3d::Forces forces = solver.integrate_forces();
  std::printf("forces: CL=%.4f CD=%.4f (pressure only, inviscid)\n",
              forces.cl, forces.cd);

  if (!trace_path.empty()) {
    smp::ThreadPool::global().publish_stats();
    obs::write_trace(trace_path, {obs::live_shard()});
  }
  return 0;
}
