// High-fidelity RANS analysis of a transport wing with the NSU3D-style
// solver — the paper's workhorse (Secs. III, VI): hybrid viscous mesh with
// geometrically stretched wall layers, Spalart-Allmaras turbulence model,
// line-implicit agglomeration multigrid with W-cycles.
//
// Observability flags:
//   --trace out.json   record solver spans and per-cycle residual/forces/
//                      level timings (view in chrome://tracing; summarize
//                      with columbia_report)
// Resilience flags:
//   --faults "seed=42,state_nan=0.2@2"  arm deterministic fault injection
//                      (COLUMBIA_FAULTS grammar) and run the guarded solve
//   --faults-help      print the full COLUMBIA_FAULTS grammar and exit
#include <cstdio>
#include <cstring>
#include <string>

#include "mesh/builders.hpp"
#include "nsu3d/solver.hpp"
#include "obs/obs.hpp"
#include "obs/shard.hpp"
#include "resil/faults.hpp"
#include "smp/pool.hpp"

using namespace columbia;

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--faults-help") == 0) {
      std::printf("%s", resil::fault_grammar_help().c_str());
      return 0;
    }
  std::string trace_path, faults_spec;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) trace_path = argv[i + 1];
    if (std::strcmp(argv[i], "--faults") == 0) faults_spec = argv[i + 1];
  }
  if (!trace_path.empty()) obs::set_enabled(true);
  if (!faults_spec.empty()) {
    try {
      resil::FaultInjector::global().configure(
          resil::parse_fault_spec(faults_spec));
      std::printf("faults: armed with '%s'\n", faults_spec.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "faults: %s\n", e.what());
      return 1;
    }
  }

  // Hybrid viscous wing mesh: hexahedral stretched wall layers under a
  // prismatic outer block (the DPW-style case of the paper's Fig. 13).
  mesh::WingMeshSpec spec;
  spec.n_wrap = 48;
  spec.n_span = 8;
  spec.n_normal = 20;
  spec.wall_spacing = 1e-4;  // ~Re-appropriate first layer
  const mesh::UnstructuredMesh wing = mesh::make_wing_mesh(spec);
  const mesh::MeshStats st = mesh::compute_stats(wing);
  std::printf("mesh: %d points, %d edges, hex=%d prism=%d, max aspect %.1e\n",
              st.points, st.edges,
              st.elements_by_type[std::size_t(mesh::ElementType::Hex)],
              st.elements_by_type[std::size_t(mesh::ElementType::Prism)],
              st.max_aspect_ratio);

  // The paper's benchmark conditions: M = 0.75, Re = 3e6 (DPW wing/body).
  euler::FlowConditions conditions;
  conditions.mach = 0.75;
  conditions.alpha_deg = 0.0;
  conditions.reynolds = 3.0e6;

  nsu3d::Nsu3dOptions opt;
  opt.mg_levels = 4;
  opt.cycle = nsu3d::CycleType::W;  // "found to produce superior rates"
  opt.smoother = nsu3d::SmootherKind::LineImplicit;
  nsu3d::Nsu3dSolver solver(wing, conditions, opt);

  std::printf("multigrid hierarchy:");
  for (int l = 0; l < solver.num_levels(); ++l)
    std::printf(" %d", solver.level(l).num_nodes);
  std::printf(" nodes; implicit lines up to %d points\n",
              solver.level(0).lines.longest());

  std::vector<real_t> history;
  if (!faults_spec.empty()) {
    const resil::GuardedSolveResult gr = solver.solve_guarded(120, 4);
    history = gr.history;
    std::printf("guarded solve: outcome=%s rollbacks=%d backoffs=%d\n",
                resil::outcome_name(gr.outcome), gr.rollbacks, gr.backoffs);
  } else {
    history = solver.solve(120, 4);
  }
  std::printf("RANS convergence: %.3e -> %.3e in %zu W-cycles "
              "(%.2f orders)\n",
              history.front(), history.back(), history.size() - 1,
              -std::log10(history.back() / history.front()));

  const nsu3d::Forces f = solver.integrate_forces();
  std::printf("wing pressure forces: CL=%.4f CD=%.4f\n", f.cl, f.cd);

  if (!trace_path.empty()) {
    smp::ThreadPool::global().publish_stats();
    obs::write_trace(trace_path, {obs::live_shard()});
  }
  return 0;
}
