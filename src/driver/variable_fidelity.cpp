#include "driver/variable_fidelity.hpp"

namespace columbia::driver {

CampaignResult run_campaign(const CampaignSpec& spec) {
  CampaignResult out;

  // High-fidelity anchors: RANS solutions on the hybrid viscous mesh.
  const mesh::UnstructuredMesh wing = mesh::make_wing_mesh(spec.wing_mesh);
  for (const WindPoint& wp : spec.anchor_points) {
    euler::FlowConditions fc;
    fc.mach = wp.mach;
    fc.alpha_deg = wp.alpha_deg;
    fc.beta_deg = wp.beta_deg;
    fc.reynolds = spec.reynolds;
    nsu3d::Nsu3dSolver solver(wing, fc, spec.nsu3d_options);
    const auto hist = solver.solve(spec.nsu3d_max_cycles, 5);
    const nsu3d::Forces f = solver.integrate_forces();
    AnchorResult r;
    r.wind = wp;
    r.cl = f.cl;
    r.cd = f.cd;
    r.cycles = int(hist.size()) - 1;
    r.residual_drop = hist.front() > 0 ? hist.back() / hist.front() : 0;
    out.anchors.push_back(r);
  }

  // Envelope sweep: inviscid database fill.
  DatabaseFill fill(spec.database);
  out.database = fill.run();
  out.database_stats = fill.stats();
  return out;
}

}  // namespace columbia::driver
