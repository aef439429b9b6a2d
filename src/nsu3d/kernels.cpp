#include "nsu3d/kernels.hpp"

#include <algorithm>
#include <type_traits>

#include "euler/jacobian.hpp"
#include "linalg/block_tridiag.hpp"
#include "obs/obs.hpp"
#include "smp/pool.hpp"
#include "support/assert.hpp"

namespace columbia::nsu3d::kernels {

using euler::Prim;
using geom::Vec3;
using linalg::BlockLU;
using linalg::BlockMat;
using linalg::BlockVec;
using Edge = std::pair<index_t, index_t>;

namespace {

// Chunk grains for the pooled loops (kNodeGrain: kernels.hpp); fixed
// constants so chunk boundaries — and with them floating-point combine
// order — never depend on the thread count (see smp::ThreadPool's
// determinism contract). A color shorter than two chunks runs inline on
// the calling thread, without a dispatch. The heavy edge sweeps (limiter,
// flux) split every color into 64-edge chunks, so all threads share even
// the small colors of the coarse levels (level 1 of the Fig. 14a wing: 20
// colors of 4-1,170 edges). The light ones (gradients, wave speeds) cost
// about 20 ns per edge, too little to pay for a dispatch and for moving
// the node blocks between cores every color: at 4 threads a 64-edge grain
// made level 1's gradient sweep slower than at 1 thread. With 512-edge
// chunks a color under 1,024 edges runs inline, and the fine level's
// large colors still split (measured at 1, 2 and 4 threads against 64,
// 256 and 1,024; DESIGN.md section 11).
constexpr std::size_t kEdgeGrain = 64;
constexpr std::size_t kLightEdgeGrain = 512;
constexpr std::size_t kLineGrain = 1;  // batches of kLanes lines

/// Runs `body(edge)` over every edge, one color span at a time. Edges in
/// a span touch disjoint nodes (Level::color_offsets), so the scatter is
/// race-free; processing colors in order keeps per-node accumulation
/// order fixed for every thread count.
template <class Fn>
void for_edges_colored(const Level& lvl, std::size_t grain, Fn&& body) {
  smp::ThreadPool& pool = smp::ThreadPool::global();
  for (std::size_t c = 0; c + 1 < lvl.color_offsets.size(); ++c)
    pool.parallel_for(lvl.color_offsets[c], lvl.color_offsets[c + 1],
                      grain, [&](std::size_t b, std::size_t e, int) {
                        for (std::size_t k = b; k < e; ++k) body(k);
                      });
}

/// Elementwise (no cross-index writes) loop over [0, n).
template <class Fn>
void for_nodes(std::size_t n, Fn&& body) {
  smp::ThreadPool::global().parallel_for(
      0, n, kNodeGrain, [&](std::size_t b, std::size_t e, int) {
        for (std::size_t i = b; i < e; ++i) body(i);
      });
}

/// Compile-time Riemann-solver dispatch so the flux sweep inlines the
/// scheme body instead of branching per edge.
template <euler::FluxScheme S>
euler::Cons scheme_flux(const Prim& l, const Prim& r, const Vec3& n) {
  if constexpr (S == euler::FluxScheme::Roe) return euler::roe_flux(l, r, n);
  if constexpr (S == euler::FluxScheme::VanLeer)
    return euler::van_leer_flux(l, r, n);
  return euler::rusanov_flux(l, r, n);
}

real_t venkat(real_t dplus, real_t dq, real_t eps2) {
  const real_t num = (dplus * dplus + eps2) + 2.0 * dplus * dq;
  const real_t den = dplus * dplus + 2.0 * dq * dq + dplus * dq + eps2;
  return den > 0 ? num / den : 1.0;
}

// Edge-sweep inner bodies, hoisted into functions whose pointer parameters
// carry __restrict: GCC honors parameter-level restrict without emitting
// runtime alias-check loop versions (edge endpoints are distinct nodes, so
// the a/b blocks never overlap). Each 6-wide component loop then
// vectorizes unconditionally — elementwise, no reassociation.
template <bool MinMax>
inline void grad_edge(real_t* __restrict ga, real_t* __restrict gbb,
                      const real_t* __restrict pa,
                      const real_t* __restrict pbv, real_t enx, real_t eny,
                      real_t enz) {
  for (std::size_t c = 0; c < 6; ++c) {
    const real_t qa = pa[c], qb = pbv[c];
    const real_t qf = 0.5 * (qa + qb);
    ga[c] += qf * enx;
    ga[6 + c] += qf * eny;
    ga[12 + c] += qf * enz;
    gbb[c] -= qf * enx;
    gbb[6 + c] -= qf * eny;
    gbb[12 + c] -= qf * enz;
    if constexpr (MinMax) {
      ga[18 + c] = std::min(ga[18 + c], qb);
      ga[24 + c] = std::max(ga[24 + c], qb);
      gbb[18 + c] = std::min(gbb[18 + c], qa);
      gbb[24 + c] = std::max(gbb[24 + c], qa);
    }
  }
}

/// Directional differences g . (+-d) for both sides of one edge, stored in
/// the per-edge stream. Side a looks along +d, side b along -d;
/// (-g)·d = -(g·d) exactly, so negating the precomputed half-offset
/// matches the scalar path.
inline void limiter_dq(real_t* __restrict ed, const real_t* __restrict ga,
                       const real_t* __restrict gbb, real_t dxe, real_t dye,
                       real_t dze) {
  for (std::size_t c = 0; c < 6; ++c) {
    ed[c] = (ga[c] * dxe + ga[6 + c] * dye) + ga[12 + c] * dze;
    ed[6 + c] = (gbb[c] * -dxe + gbb[6 + c] * -dye) + gbb[12 + c] * -dze;
  }
}

/// Limited linear reconstruction of both edge sides from the prim blocks,
/// the phi blocks, and the cached directional differences.
inline void recon_edge(real_t* __restrict ql, real_t* __restrict qr,
                       const real_t* __restrict pa,
                       const real_t* __restrict pbv,
                       const real_t* __restrict pha,
                       const real_t* __restrict phb,
                       const real_t* __restrict ed) {
  for (std::size_t c = 0; c < 6; ++c) {
    ql[c] = pa[c] + pha[c] * ed[c];
    qr[c] = pbv[c] + phb[c] * ed[6 + c];
  }
}

}  // namespace

void Scratch::resize(const Level& lvl) {
  n = std::size_t(lvl.num_nodes);
  w.resize(n);
  nut.resize(n);
  mut.resize(n);
  pb.resize(n * kPrimStride);
  gb.resize(n * kGradStride);
}

namespace {

/// prim_cache body with optional fused seeding of the gradient/phi blocks
/// and zeroing of the residual — pure stores to fields nothing reads until
/// the later phases, so riding along in this pass is bit-neutral and saves
/// whole-array sweeps in the composed residual().
template <bool SeedGrad, bool SeedMinmax, bool ZeroRes>
void prim_cache_impl(const Level& lvl, const Physics& phys,
                     std::span<const State> u, Scratch& s,
                     std::vector<State>* res) {
  const std::size_t n = std::size_t(lvl.num_nodes);
  Prim* const w = s.w.data();
  real_t* const nut = s.nut.data();
  real_t* const mut = s.mut.data();
  real_t* const pb = s.pb.data();
  real_t* const gb = s.gb.data();
  real_t* const ph = s.ph.data();
  State* const r = ZeroRes ? res->data() : nullptr;
  const real_t mu_lam = phys.mu_lam;
  const bool viscous = phys.viscous;
  for_nodes(n, [&](std::size_t i) {
    const State& ui = u[i];
    const Prim wi = mean_prim(ui);
    w[i] = wi;
    const real_t nt = ui[5] / ui[0];
    nut[i] = nt;
    const real_t ev =
        viscous ? eddy_viscosity(wi.rho, nt, mu_lam / wi.rho) : 0.0;
    mut[i] = ev;
    real_t* const __restrict p = pb + i * kPrimStride;
    p[0] = wi.rho;
    p[1] = wi.vel.x;
    p[2] = wi.vel.y;
    p[3] = wi.vel.z;
    p[4] = wi.p;
    p[5] = nt;
    p[6] = ev;
    // p/rho with the exact division the viscous flux performed per edge
    // side; cached so the energy Laplacian reads two values per edge.
    p[7] = viscous ? wi.p / wi.rho : 0.0;
    if constexpr (SeedGrad) {
      real_t* const __restrict g = gb + i * kGradStride;
      for (std::size_t c = 0; c < 6; ++c) {
        g[c] = g[6 + c] = g[12 + c] = 0.0;
        if constexpr (SeedMinmax) g[18 + c] = g[24 + c] = p[c];
      }
      if constexpr (SeedMinmax) {
        real_t* const __restrict f = ph + i * kPhiStride;
        for (std::size_t c = 0; c < 6; ++c) f[c] = 1.0;
      }
    }
    if constexpr (ZeroRes) r[i] = State{};
  });
}

}  // namespace

void prim_cache(const Level& lvl, const Physics& phys,
                std::span<const State> u, Scratch& s) {
  prim_cache_impl<false, false, false>(lvl, phys, u, s, nullptr);
}

namespace {

/// Edge sweep + finalize of the Green-Gauss gradients; requires the
/// gradient (and, with minmax, phi) blocks to be seeded — either by the
/// standalone seed pass in gradients() or fused into prim_cache_impl.
void gradients_sweep(const Level& lvl, Scratch& s, bool with_minmax);

}  // namespace

void gradients(const Level& lvl, Scratch& s, bool with_minmax) {
  const std::size_t n = std::size_t(lvl.num_nodes);
  if (with_minmax) s.ph.resize(n * kPhiStride);
  const real_t* const pb = s.pb.data();
  real_t* const gb = s.gb.data();
  real_t* const ph = s.ph.data();

  // Zero the accumulators; seed min/max with the node's own value (the
  // scalar path did this between its two edge sweeps — the seeds read only
  // q, so seeding before the fused sweep is value-identical). The limiter
  // seed (phi = 1) rides along in the same pass: nothing reads ph before
  // the limiter's own min-accumulation.
  for_nodes(n, [&](std::size_t i) {
    real_t* const __restrict g = gb + i * kGradStride;
    const real_t* const __restrict p = pb + i * kPrimStride;
    for (std::size_t c = 0; c < 6; ++c) {
      g[c] = g[6 + c] = g[12 + c] = 0.0;
      if (with_minmax) g[18 + c] = g[24 + c] = p[c];
    }
    if (with_minmax) {
      real_t* const __restrict f = ph + i * kPhiStride;
      for (std::size_t c = 0; c < 6; ++c) f[c] = 1.0;
    }
  });
  gradients_sweep(lvl, s, with_minmax);
}

namespace {

void gradients_sweep(const Level& lvl, Scratch& s, bool with_minmax) {
  const std::size_t n = std::size_t(lvl.num_nodes);
  const real_t* const pb = s.pb.data();
  real_t* const gb = s.gb.data();

  // Fused sweep: Green-Gauss accumulation and neighbor min/max visit edges
  // in the same order, so each output stream keeps the scalar path's
  // per-node accumulation order.
  const Edge* const ends = lvl.edges.data();
  const real_t* const nx = lvl.edge_nx.data();
  const real_t* const ny = lvl.edge_ny.data();
  const real_t* const nz = lvl.edge_nz.data();
  auto sweep = [&](auto minmax) {
    for_edges_colored(lvl, kLightEdgeGrain, [&](std::size_t e) {
      const std::size_t a = std::size_t(ends[e].first);
      const std::size_t b = std::size_t(ends[e].second);
      const real_t enx = nx[e], eny = ny[e], enz = nz[e];
      grad_edge<decltype(minmax)::value>(
          gb + a * kGradStride, gb + b * kGradStride, pb + a * kPrimStride,
          pb + b * kPrimStride, enx, eny, enz);
    });
  };
  if (with_minmax)
    sweep(std::true_type{});
  else
    sweep(std::false_type{});

  // Boundary closure + volume normalization. The scalar path divided a
  // Vec3 by max(vol, 1e-300), which geom::Vec3 implements as reciprocal
  // multiplication — Level::inv_volume is that same reciprocal.
  const real_t* const invv = lvl.inv_volume.data();
  for_nodes(n, [&](std::size_t i) {
    Vec3 bn{};
    for (const Vec3& t : lvl.boundary_normal[i]) bn += t;
    const real_t iv = invv[i];
    real_t* const __restrict g = gb + i * kGradStride;
    const real_t* const __restrict p = pb + i * kPrimStride;
    for (std::size_t c = 0; c < 6; ++c) {
      const real_t qi = p[c];
      g[c] = (g[c] + qi * bn.x) * iv;
      g[6 + c] = (g[6 + c] + qi * bn.y) * iv;
      g[12 + c] = (g[12 + c] + qi * bn.z) * iv;
    }
  });
}

}  // namespace

void limiter(const Level& lvl, Scratch& s) {
  // ph was sized and seeded to 1 by the gradients(with_minmax) pass that
  // must precede this kernel (the limiter needs those gradients and
  // min/max).
  COLUMBIA_REQUIRE(s.ph.size() == std::size_t(lvl.num_nodes) * kPhiStride);
  s.edq.resize(lvl.edges.size() * kEdqStride);
  const real_t* const pb = s.pb.data();
  const real_t* const gb = s.gb.data();
  real_t* const ph = s.ph.data();
  real_t* const edq = s.edq.data();

  const Edge* const ends = lvl.edges.data();
  const real_t* const dx = lvl.edge_dx.data();
  const real_t* const dy = lvl.edge_dy.data();
  const real_t* const dz = lvl.edge_dz.data();
  for_edges_colored(lvl, kEdgeGrain, [&](std::size_t e) {
    const std::size_t a = std::size_t(ends[e].first);
    const std::size_t b = std::size_t(ends[e].second);
    const real_t dxe = dx[e], dye = dy[e], dze = dz[e];
    const real_t eps2 = lvl.edge_eps2[e];
    const real_t* const pa = pb + a * kPrimStride;
    const real_t* const pbv = pb + b * kPrimStride;
    const real_t* const ga = gb + a * kGradStride;
    const real_t* const gbb = gb + b * kGradStride;
    real_t* const pha = ph + a * kPhiStride;
    real_t* const phb = ph + b * kPhiStride;
    real_t* const ed = edq + e * kEdqStride;
    // Vectorized directional differences, cached per edge: the flux
    // reconstruction reuses them bitwise instead of re-gathering the
    // gradients. The venkat pass stays scalar and branchy: a branchless/
    // vectorized form measured slower both at freestream (where most
    // components skip the division) and on a developed flow (where the
    // branches are nearly always taken and predict well).
    limiter_dq(ed, ga, gbb, dxe, dye, dze);
    for (std::size_t c = 0; c < 6; ++c) {
      const real_t dqa = ed[c];
      const real_t dqb = ed[6 + c];
      real_t lim_a = 1.0;
      if (dqa > 1e-14)
        lim_a = venkat(ga[24 + c] - pa[c], dqa, eps2);
      else if (dqa < -1e-14)
        lim_a = venkat(pa[c] - ga[18 + c], -dqa, eps2);
      pha[c] = std::min(pha[c], lim_a);
      real_t lim_b = 1.0;
      if (dqb > 1e-14)
        lim_b = venkat(gbb[24 + c] - pbv[c], dqb, eps2);
      else if (dqb < -1e-14)
        lim_b = venkat(pbv[c] - gbb[18 + c], -dqb, eps2);
      phb[c] = std::min(phb[c], lim_b);
    }
  });
}

namespace {

template <euler::FluxScheme S>
void flux_edges_impl(const Level& lvl, const Physics& phys, const Scratch& s,
                     bool second_order, std::vector<State>& res) {
  // Everything a flux evaluation needs per node — reconstruction scalars,
  // eddy viscosity, p/rho — sits in the one-line prim block; the limiter
  // pass already cached the per-edge directional differences, so the sweep
  // gathers two prim lines + two phi lines per edge and streams the rest.
  const real_t* const pb = s.pb.data();
  const real_t* const ph = s.ph.data();
  const real_t* const edq = s.edq.data();
  State* const r = res.data();
  const real_t mu_lam = phys.mu_lam;
  const bool viscous = phys.viscous;
  // Loop-invariant laminar conduction factor (same division as the scalar
  // path, evaluated once).
  const real_t mu_pr = mu_lam / kPrandtl;

  const Edge* const ends = lvl.edges.data();
  const real_t* const geo_ = lvl.edge_geo.data();
  for_edges_colored(lvl, kEdgeGrain, [&](std::size_t e) {
    const std::size_t a = std::size_t(ends[e].first);
    const std::size_t b = std::size_t(ends[e].second);
    const real_t area = lvl.edge_area[e];
    if (area <= 0) return;
    const Vec3 nh{lvl.edge_ux[e], lvl.edge_uy[e], lvl.edge_uz[e]};
    const real_t* const pa = pb + a * kPrimStride;
    const real_t* const pbv = pb + b * kPrimStride;

    // Limited linear reconstruction to the edge midpoint (falls back to
    // the node value when it would produce a nonphysical state).
    Prim wl{pa[0], {pa[1], pa[2], pa[3]}, pa[4]};
    Prim wr{pbv[0], {pbv[1], pbv[2], pbv[3]}, pbv[4]};
    real_t nut_l = pa[5], nut_r = pbv[5];
    if (second_order) {
      real_t ql[6], qr[6];
      recon_edge(ql, qr, pa, pbv, ph + a * kPhiStride, ph + b * kPhiStride,
                 edq + e * kEdqStride);
      if (!(ql[0] <= 0 || ql[4] <= 0)) {
        wl = Prim{ql[0], {ql[1], ql[2], ql[3]}, ql[4]};
        nut_l = ql[5];
      }
      if (!(qr[0] <= 0 || qr[4] <= 0)) {
        wr = Prim{qr[0], {qr[1], qr[2], qr[3]}, qr[4]};
        nut_r = qr[5];
      }
    }

    const euler::Cons flux = scheme_flux<S>(wl, wr, nh);
    const real_t mdot = flux[0] * area;
    const real_t fnut = mdot * (mdot >= 0 ? nut_l : nut_r);
    for (std::size_t c = 0; c < 5; ++c) {
      const real_t fc = area * flux[c];
      r[a][c] += fc;
      r[b][c] -= fc;
    }
    r[a][5] += fnut;
    r[b][5] -= fnut;

    // Thin-layer viscous terms; edge_geo carries the area/length metric
    // (positive exactly when the scalar path's length guard passed).
    if (viscous && geo_[e] > 0) {
      const real_t geo = geo_[e];
      const real_t mutm = 0.5 * (pa[6] + pbv[6]);
      const real_t cm = (mu_lam + mutm) * geo;
      const Vec3 va{pa[1], pa[2], pa[3]};
      const Vec3 vb{pbv[1], pbv[2], pbv[3]};
      const Vec3 dvel = vb - va;
      r[a][1] -= cm * dvel.x;
      r[a][2] -= cm * dvel.y;
      r[a][3] -= cm * dvel.z;
      r[b][1] += cm * dvel.x;
      r[b][2] += cm * dvel.y;
      r[b][3] += cm * dvel.z;
      // Shear work + conduction lumped into an energy Laplacian with the
      // thermal coefficient (thin-layer approximation).
      const real_t ck = (mu_pr + mutm / kPrandtlTurb) * euler::kGamma /
                        (euler::kGamma - 1) * geo;
      const real_t dT = pbv[7] - pa[7];
      // Mean kinetic-energy transport by shear.
      const Vec3 vm = 0.5 * (va + vb);
      const real_t dke = dot(vm, dvel);
      const real_t de = ck * dT + cm * dke;
      r[a][4] -= de;
      r[b][4] += de;
      // SA diffusion: (1/sigma) rho (nu + nu~) grad nu~.
      const real_t rho_m = 0.5 * (pa[0] + pbv[0]);
      const real_t nu_m = mu_lam / rho_m;
      const real_t nut_m = 0.5 * (pa[5] + pbv[5]);
      const real_t cs =
          rho_m * (nu_m + std::max<real_t>(nut_m, 0)) / kSigma * geo;
      const real_t ds = cs * (pbv[5] - pa[5]);
      r[a][5] -= ds;
      r[b][5] += ds;
    }
  });
}

}  // namespace

namespace {

/// Flux edge sweep without the zeroing pass — the fused residual() zeroes
/// `res` inside prim_cache_impl instead.
void flux_sweep(const Level& lvl, const Physics& phys, const Scratch& s,
                bool second_order, std::vector<State>& res) {
  switch (phys.flux) {
    case euler::FluxScheme::Roe:
      flux_edges_impl<euler::FluxScheme::Roe>(lvl, phys, s, second_order, res);
      break;
    case euler::FluxScheme::VanLeer:
      flux_edges_impl<euler::FluxScheme::VanLeer>(lvl, phys, s, second_order,
                                                  res);
      break;
    case euler::FluxScheme::Rusanov:
      flux_edges_impl<euler::FluxScheme::Rusanov>(lvl, phys, s, second_order,
                                                  res);
      break;
  }
}

}  // namespace

void flux_residual(const Level& lvl, const Physics& phys, const Scratch& s,
                   bool second_order, std::vector<State>& res) {
  res.assign(std::size_t(lvl.num_nodes), State{});
  flux_sweep(lvl, phys, s, second_order, res);
}

namespace {

// Per-node bodies of the three residual closures. The closures are
// independent across nodes, so residual() fuses them into a single node
// pass, in the order boundary flux, strong-BC projection, SA source
// (the scalar oracle runs the same order as three loops; sa_source, the
// benchmarks' standalone phase, loops over the last body alone).

inline void boundary_node(const Level& lvl, const Physics& phys,
                          const Prim* w, const real_t* nut, std::size_t i,
                          State& ri) {
  const Vec3& fn =
      lvl.boundary_normal[i][std::size_t(mesh::BoundaryTag::Farfield)];
  const real_t fa = norm(fn);
  if (fa > 0) {
    const Vec3 nh = fn / fa;
    const euler::Cons flux =
        euler::farfield_flux(w[i], phys.freestream, nh, phys.flux);
    for (std::size_t c = 0; c < 5; ++c) ri[c] += fa * flux[c];
    const real_t mdot = flux[0] * fa;
    ri[5] += mdot * (mdot >= 0 ? nut[i] : phys.nut_inf);
  }
  for (mesh::BoundaryTag tag :
       {mesh::BoundaryTag::Wall, mesh::BoundaryTag::Symmetry}) {
    const Vec3& bn = lvl.boundary_normal[i][std::size_t(tag)];
    if (dot(bn, bn) > 0) {
      const euler::Cons flux = euler::wall_flux(w[i], bn);
      for (std::size_t c = 0; c < 5; ++c) ri[c] += flux[c];
    }
  }
}

/// Strongly-constrained components carry no residual: their equations are
/// replaced by the Dirichlet projection (Nsu3dSolver::project). Leaving
/// them in would poison the FAS coarse-grid forcing with residuals the
/// fine grid never drives to zero. Fine level only.
inline void strong_bc_node(const Level& lvl, bool viscous, std::size_t i,
                           State& ri) {
  if (viscous && lvl.is_wall_node(index_t(i))) {
    ri[1] = ri[2] = ri[3] = 0;
    ri[5] = 0;
    return;
  }
  const Vec3& sn =
      lvl.boundary_normal[i][std::size_t(mesh::BoundaryTag::Symmetry)];
  const real_t s2 = dot(sn, sn);
  if (s2 > 0) {
    const Vec3 nh = sn / std::sqrt(s2);
    Vec3 rm{ri[1], ri[2], ri[3]};
    rm -= dot(rm, nh) * nh;
    ri[1] = rm.x;
    ri[2] = rm.y;
    ri[3] = rm.z;
  }
}

/// Constants of the SA destruction term hoisted out of the node loop.
/// pow(kCw3, 6) is compile-time constant. The r argument saturates to
/// exactly 10.0 wherever stilde <= 0 or the ratio exceeds the cap — i.e.
/// in every (near-)irrotational region. The whole fw chain is then a
/// fixed composition of the same std::pow calls the per-node path would
/// make, so hoisting it preserves every bit while skipping three libm
/// calls on the fast path.
struct SaConsts {
  real_t c6, fw_sat;
};

inline SaConsts sa_consts() {
  const real_t c6 = std::pow(kCw3, 6);
  const real_t g_sat =
      10.0 + kCw2 * (std::pow(real_t(10.0), 6) - real_t(10.0));
  const real_t fw_sat =
      g_sat * std::pow((1.0 + c6) / (std::pow(g_sat, 6) + c6), 1.0 / 6.0);
  return {c6, fw_sat};
}

inline void sa_node(const Level& lvl, real_t mu_lam, const Prim* w,
                    const real_t* nut, const real_t* gb, const SaConsts& sc,
                    std::size_t i, State& ri) {
  const real_t d = std::max(lvl.wall_distance[i], real_t(1e-8));
  const real_t nu = mu_lam / w[i].rho;
  const real_t nt = std::max<real_t>(nut[i], 0);
  // Vorticity magnitude from the Green-Gauss velocity gradients
  // (components read from the gradient block; same dot order as norm()).
  const real_t* const gi = gb + i * kGradStride;
  const real_t ox = gi[6 + 3] - gi[12 + 2];
  const real_t oy = gi[12 + 1] - gi[3];
  const real_t oz = gi[2] - gi[6 + 1];
  const real_t sv = std::sqrt((ox * ox + oy * oy) + oz * oz);
  const real_t chi = nt / nu;
  const real_t chi3 = chi * chi * chi;
  const real_t fv1 = chi3 / (chi3 + kCv1 * kCv1 * kCv1);
  const real_t fv2 = 1.0 - chi / (1.0 + chi * fv1);
  const real_t k2d2 = kKappa * kKappa * d * d;
  real_t stilde = sv + nt / k2d2 * fv2;
  stilde = std::max(stilde, real_t(0.3) * sv);
  const real_t prod = kCb1 * stilde * w[i].rho * nt;
  real_t rr = stilde > 0 ? nt / (stilde * k2d2) : 10.0;
  rr = std::min(rr, real_t(10.0));
  real_t fw;
  if (rr == 10.0) {
    fw = sc.fw_sat;
  } else {
    const real_t g = rr + kCw2 * (std::pow(rr, 6) - rr);
    fw = g * std::pow((1.0 + sc.c6) / (std::pow(g, 6) + sc.c6), 1.0 / 6.0);
  }
  const real_t destr = kCw1 * fw * w[i].rho * (nt / d) * (nt / d);
  ri[5] += lvl.node_volume[i] * (destr - prod);
}

}  // namespace

void sa_source(const Level& lvl, const Physics& phys, const Scratch& s,
               std::vector<State>& res) {
  const std::size_t n = std::size_t(lvl.num_nodes);
  const Prim* const w = s.w.data();
  const real_t* const nut = s.nut.data();
  const real_t* const gb = s.gb.data();
  const SaConsts sc = sa_consts();
  for_nodes(n, [&](std::size_t i) {
    sa_node(lvl, phys.mu_lam, w, nut, gb, sc, i, res[i]);
  });
}

void residual(const Level& lvl, const Physics& phys, int level,
              std::span<const State> u, bool second_order, Scratch& s,
              std::vector<State>& res) {
  s.resize(lvl);
  // Fused setup: the prim-cache pass also seeds the gradient/phi blocks and
  // zeroes `res` (same stores the standalone phases make, one sweep fewer
  // over the node arrays).
  res.resize(std::size_t(lvl.num_nodes));
  const bool grads = second_order || phys.viscous;
  if (grads && second_order) {
    s.ph.resize(std::size_t(lvl.num_nodes) * kPhiStride);
    prim_cache_impl<true, true, true>(lvl, phys, u, s, &res);
  } else if (grads) {
    prim_cache_impl<true, false, true>(lvl, phys, u, s, &res);
  } else {
    prim_cache_impl<false, false, true>(lvl, phys, u, s, &res);
  }
  if (grads) gradients_sweep(lvl, s, second_order);
  if (second_order) limiter(lvl, s);
  flux_sweep(lvl, phys, s, second_order, res);
  // Fused node closures: one pass over the nodes applies the boundary
  // fluxes, the strong-BC filter, and the SA source (see the per-node
  // bodies above for why this matches the separate phase kernels bit for
  // bit).
  const std::size_t n = std::size_t(lvl.num_nodes);
  const Prim* const w = s.w.data();
  const real_t* const nut = s.nut.data();
  const real_t* const gb = s.gb.data();
  const SaConsts sc = sa_consts();
  const bool strong = level == 0;
  const bool viscous = phys.viscous;
  for_nodes(n, [&](std::size_t i) {
    State& ri = res[i];
    boundary_node(lvl, phys, w, nut, i, ri);
    if (strong) strong_bc_node(lvl, viscous, i, ri);
    if (viscous) sa_node(lvl, phys.mu_lam, w, nut, gb, sc, i, ri);
  });
}

void wave_speeds(const Level& lvl, const Physics& phys, Scratch& s) {
  const std::size_t n = std::size_t(lvl.num_nodes);
  s.wave.assign(n, 0.0);
  s.snd.resize(n);
  const Prim* const w = s.w.data();
  const real_t* const mut = s.mut.data();
  real_t* const wave = s.wave.data();
  real_t* const snd = s.snd.data();
  const real_t mu_lam = phys.mu_lam;
  const bool viscous = phys.viscous;

  // Per-node sound speed, cached: the scalar path recomputed sqrt(g p/rho)
  // for both endpoints of every edge.
  for_nodes(n, [&](std::size_t i) { snd[i] = w[i].sound_speed(); });

  const Edge* const ends = lvl.edges.data();
  for_edges_colored(lvl, kLightEdgeGrain, [&](std::size_t e) {
    const std::size_t a = std::size_t(ends[e].first);
    const std::size_t b = std::size_t(ends[e].second);
    const real_t area = lvl.edge_area[e];
    if (area <= 0) return;
    const Vec3 nh{lvl.edge_ux[e], lvl.edge_uy[e], lvl.edge_uz[e]};
    wave[a] += (std::abs(dot(w[a].vel, nh)) + snd[a]) * area;
    wave[b] += (std::abs(dot(w[b].vel, nh)) + snd[b]) * area;
    if (viscous && lvl.edge_length[e] > 0) {
      // (coef * area) / length — the association differs from coef *
      // edge_geo, so the per-edge division stays.
      const real_t c =
          (mu_lam + 0.5 * (mut[a] + mut[b])) * area / lvl.edge_length[e];
      wave[a] += c / w[a].rho;
      wave[b] += c / w[b].rho;
    }
  });
  for_nodes(n, [&](std::size_t i) {
    Vec3 bn{};
    for (const Vec3& t : lvl.boundary_normal[i]) bn += t;
    const real_t ba = norm(bn);
    if (ba > 0) wave[i] += euler::spectral_radius(w[i], bn / ba) * ba;
  });
}

namespace {

using linalg::kLanes;
using linalg::Lanes;
using Mask = Lanes::Mask;
template <int N>
using Mat = linalg::LaneMat<N>;

/// Applies the under-relaxed mean-flow and SA updates to node i, keeping
/// the old state when the new one is not physical.
void apply_update(std::vector<State>& u, std::size_t i, real_t relax,
                  const BlockVec<5>& du, real_t dsa) {
  State unew = u[i];
  for (int c = 0; c < 5; ++c) unew[std::size_t(c)] += relax * du[c];
  unew[5] += relax * dsa;
  unew[5] = std::max<real_t>(unew[5], 0);
  if (state_valid(unew)) u[i] = unew;
}

/// Inputs of the batched line solve that every batch reads.
struct LineSweepArgs {
  const Level& lvl;
  const Physics& phys;
  real_t relax;
  std::span<const State> f, r;
  const Scratch& s;
  std::vector<State>& u;
};

/// A primitive state in lanes.
struct LanePrim {
  Lanes rho, vx, vy, vz, p;
};

/// Lane l of the result is at(idx[l]).
template <class Fn>
inline Lanes gather(const std::size_t (&idx)[kLanes], Fn&& at) {
  return Lanes::of(at(idx[0]), at(idx[1]), at(idx[2]), at(idx[3]));
}

inline LanePrim gather_prim(const Prim* w, const std::size_t (&idx)[kLanes]) {
  return {gather(idx, [&](std::size_t i) { return w[i].rho; }),
          gather(idx, [&](std::size_t i) { return w[i].vel.x; }),
          gather(idx, [&](std::size_t i) { return w[i].vel.y; }),
          gather(idx, [&](std::size_t i) { return w[i].vel.z; }),
          gather(idx, [&](std::size_t i) { return w[i].p; })};
}

/// dot(w.vel, n) of geom::dot, lane by lane.
inline Lanes lane_dot(const LanePrim& w, const Lanes& nx, const Lanes& ny,
                      const Lanes& nz) {
  return w.vx * nx + w.vy * ny + w.vz * nz;
}

/// euler::flux_jacobian lane by lane: the same expressions, evaluated in
/// the same order.
Mat<5> lane_flux_jacobian(const LanePrim& w, const Lanes& nx,
                          const Lanes& ny, const Lanes& nz) {
  const real_t g = euler::kGamma;
  const Lanes& u = w.vx;
  const Lanes& v = w.vy;
  const Lanes& wz = w.vz;
  const Lanes q2 = u * u + v * v + wz * wz;
  const Lanes un = lane_dot(w, nx, ny, nz);
  const Lanes h = g / (g - 1) * w.p / w.rho + 0.5 * q2;
  const real_t gm1 = g - 1;

  Mat<5> a;
  a(0, 0) = Lanes::zero();
  a(0, 1) = nx;
  a(0, 2) = ny;
  a(0, 3) = nz;
  a(0, 4) = Lanes::zero();
  const Lanes* const vel[3] = {&u, &v, &wz};
  const Lanes* const nn[3] = {&nx, &ny, &nz};
  for (int i = 0; i < 3; ++i) {
    a(1 + i, 0) = 0.5 * gm1 * q2 * *nn[i] - *vel[i] * un;
    for (int j = 0; j < 3; ++j)
      a(1 + i, 1 + j) =
          i == j ? *vel[i] * *nn[j] - gm1 * *vel[j] * *nn[i] + un
                 : *vel[i] * *nn[j] - gm1 * *vel[j] * *nn[i] + 0.0;
    a(1 + i, 4) = gm1 * *nn[i];
  }
  a(4, 0) = (0.5 * gm1 * q2 - h) * un;
  for (int j = 0; j < 3; ++j) a(4, 1 + j) = h * *nn[j] - gm1 * *vel[j] * un;
  a(4, 4) = g * un;
  return a;
}

/// select(m, a, b), skipped when every lane of m is on (`all`).
inline Lanes select_where(const Mask& m, bool all, const Lanes& a,
                          const Lanes& b) {
  return all ? a : select(m, a, b);
}

/// x += t in the lanes of m. Where a lane is off it keeps x through a
/// select, never an add of zero, so no signed zero can change.
inline void add_where(Lanes& x, const Lanes& t, const Mask& m, bool all) {
  x = select_where(m, all, x + t, x);
}

/// Edge terms of kLanes consecutive nodes' diagonal blocks (the lane-wise
/// body of assemble_diag): lane l walks node i0 + l's incident list in
/// edge order, and a lane whose list has ended, or whose edge has no
/// area, keeps its block. Lanes past `nreal` repeat node i0 and are not
/// stored.
void assemble_lanes(const Level& lvl, const Physics& phys, real_t cfl,
                    std::span<const State> u, const Scratch& s, std::size_t i0,
                    int nreal, ImplicitBlock* diag) {
  const Edge* const ends = lvl.edges.data();
  const real_t* const mut = s.mut.data();
  std::size_t node[kLanes];
  std::span<const index_t> inc[kLanes];
  std::size_t most = 0;
  for (int l = 0; l < kLanes; ++l) {
    node[l] = i0 + std::size_t(l < nreal ? l : 0);
    inc[l] = lvl.incident[node[l]];
    most = std::max(most, inc[l].size());
  }
  const LanePrim wl = gather_prim(s.w.data(), node);
  const Lanes wave = gather(node, [&](std::size_t i) { return s.wave[i]; });
  const Lanes vol =
      gather(node, [&](std::size_t i) { return lvl.node_volume[i]; });
  const Lanes snd = gather(node, [&](std::size_t i) { return s.snd[i]; });
  const Lanes dt = select(wave > 0.0, cfl * vol / wave, Lanes::splat(1e30));
  const Lanes d0 = vol / dt;
  Mat<5> d;
  for (int rr = 0; rr < 5; ++rr)
    for (int cc = 0; cc < 5; ++cc) d(rr, cc) = rr == cc ? d0 : Lanes::zero();
  Lanes dsa = d0;
  const real_t mu_lam = phys.mu_lam;
  for (std::size_t k = 0; k < most; ++k) {
    // A lane whose list has ended reads an edge of a lane still walking;
    // its mask bit is off.
    std::size_t e[kLanes] = {};
    std::size_t walking = 0;
    unsigned on = 0;
    for (int l = 0; l < kLanes; ++l)
      if (k < inc[l].size()) {
        e[l] = walking = std::size_t(inc[l][k]);
        on |= 1u << l;
      }
    for (int l = 0; l < kLanes; ++l)
      if (!(on >> l & 1u)) e[l] = walking;
    auto at_edges = [&](const std::vector<real_t>& v) {
      return gather(e, [&](std::size_t x) { return v[x]; });
    };
    const Lanes area = at_edges(lvl.edge_area);
    const Mask valid = Mask::from_bits(on) & ~(area <= 0.0);
    const bool all = valid.all();
    const Lanes sgn = Lanes::of(
        std::size_t(ends[e[0]].first) == node[0] ? 1.0 : -1.0,
        std::size_t(ends[e[1]].first) == node[1] ? 1.0 : -1.0,
        std::size_t(ends[e[2]].first) == node[2] ? 1.0 : -1.0,
        std::size_t(ends[e[3]].first) == node[3] ? 1.0 : -1.0);
    const Lanes lam = (abs(lane_dot(wl, at_edges(lvl.edge_ux),
                                    at_edges(lvl.edge_uy),
                                    at_edges(lvl.edge_uz))) +
                       snd) *
                      area;
    // dR_a/du_a += 0.5 (A(w_a, +n) + lambda I); likewise for b with -n.
    const Mat<5> j =
        lane_flux_jacobian(wl, sgn * at_edges(lvl.edge_nx),
                           sgn * at_edges(lvl.edge_ny),
                           sgn * at_edges(lvl.edge_nz));
    for (int rr = 0; rr < 5; ++rr)
      for (int cc = 0; cc < 5; ++cc)
        add_where(d(rr, cc), 0.5 * j(rr, cc), valid, all);
    for (int rr = 0; rr < 5; ++rr)
      add_where(d(rr, rr), 0.5 * lam, valid, all);
    add_where(dsa, 0.5 * lam, valid, all);
    if (phys.viscous) {
      const Lanes geo = at_edges(lvl.edge_geo);
      const Mask visc = valid & (geo > 0.0);
      const bool visc_all = visc.all();
      auto at_ends = [&](auto&& field) {
        return std::pair{
            gather(e, [&](std::size_t x) {
              return field(std::size_t(ends[x].first));
            }),
            gather(e, [&](std::size_t x) {
              return field(std::size_t(ends[x].second));
            })};
      };
      const auto [mut_a, mut_b] =
          at_ends([&](std::size_t i) { return mut[i]; });
      const auto [u5_a, u5_b] =
          at_ends([&](std::size_t i) { return u[i][5]; });
      const Lanes cm = (mu_lam + 0.5 * (mut_a + mut_b)) * geo;
      const Lanes cs = (mu_lam + 0.5 * (u5_a + u5_b)) / kSigma * geo;
      for (int rr = 1; rr <= 4; ++rr)
        add_where(d(rr, rr), cm, visc, visc_all);
      add_where(dsa, cs, visc, visc_all);
    }
  }
  for (int l = 0; l < nreal; ++l) {
    ImplicitBlock& out = diag[i0 + std::size_t(l)];
    for (int rr = 0; rr < 5; ++rr)
      for (int cc = 0; cc < 5; ++cc) out.mean(rr, cc) = d(rr, cc).lane(l);
    out.sa = dsa.lane(l);
  }
}

/// Solves one batch (Level::line_batches): its lines in lanes
/// 0..count-1, the other lanes carrying identity blocks and zero
/// right-hand sides. Row k is assembled, eliminated and factored in one
/// pass (solve_block_tridiag_status's forward loop, with the row's blocks
/// formed as the line assembly forms them), then both systems are
/// back-substituted and each line that met no singular pivot is updated.
void solve_line_batch(const LineSweepArgs& a, const Level::LineBatch& batch,
                      Scratch::LineRow* rows) {
  const Level& lvl = a.lvl;
  const int count = int(batch.count);
  const std::size_t len = batch.length;
  const Prim* const w = a.s.w.data();
  const real_t* const mut = a.s.mut.data();
  const real_t* const snd = a.s.snd.data();
  const ImplicitBlock* const diag = a.s.diag.data();
  const Edge* const ends = lvl.edges.data();
  const std::vector<State>& u = a.u;
  const real_t mu_lam = a.phys.mu_lam;
  // Lanes past `count` read lane 0's line; their blocks are then
  // replaced by the padding.
  std::span<const index_t> line[kLanes], ledge[kLanes];
  for (int l = 0; l < kLanes; ++l) {
    const std::size_t li = std::size_t(
        lvl.line_order[batch.first + std::size_t(l < count ? l : 0)]);
    line[l] = lvl.lines.lines[li];
    ledge[l] = lvl.line_edges[li];
  }
  const bool full = count == kLanes;
  const Mask real = Mask::from_bits((1u << count) - 1u);

  Mask fail = Mask::from_bits(0);
  // Row k's lower block (from edge k-1) and diagonal block.
  Mat<5> lower{}, dd;
  Mat<1> lower_sa{}, dd_sa;
  for (std::size_t k = 0; k < len; ++k) {
    Scratch::LineRow& row = rows[k];
    std::size_t i[kLanes];
    for (int l = 0; l < kLanes; ++l) i[l] = std::size_t(line[l][k]);
    for (int rr = 0; rr < 5; ++rr)
      for (int cc = 0; cc < 5; ++cc)
        dd(rr, cc) =
            gather(i, [&](std::size_t x) { return diag[x].mean(rr, cc); });
    dd_sa(0, 0) = gather(i, [&](std::size_t x) { return diag[x].sa; });
    for (int c = 0; c < 5; ++c)
      row.mean.rhs[c] = gather(i, [&](std::size_t x) {
        return a.f[x][std::size_t(c)] - a.r[x][std::size_t(c)];
      });
    row.sa.rhs[0] =
        gather(i, [&](std::size_t x) { return a.f[x][5] - a.r[x][5]; });
    if (!full) {
      for (int rr = 0; rr < 5; ++rr)
        for (int cc = 0; cc < 5; ++cc)
          dd(rr, cc) =
              select(real, dd(rr, cc), Lanes::splat(rr == cc ? 1.0 : 0.0));
      dd_sa(0, 0) = select(real, dd_sa(0, 0), Lanes::splat(1.0));
      for (int c = 0; c < 5; ++c)
        row.mean.rhs[c] = select(real, row.mean.rhs[c], Lanes::zero());
      row.sa.rhs[0] = select(real, row.sa.rhs[0], Lanes::zero());
    }
    if (k == 0) {
      fail = fail | row.mean.lu.factor(dd) | row.sa.lu.factor(dd_sa);
    } else {
      fail = fail |
             linalg::tridiag_eliminate(rows[k - 1].mean, lower, dd,
                                       row.mean) |
             linalg::tridiag_eliminate(rows[k - 1].sa, lower_sa, dd_sa,
                                       row.sa);
    }
    if (k + 1 == len) break;

    // The blocks of line edge k, joining i = line[k] to j = line[k + 1]
    // (Level::line_edges): row k's upper block and row k+1's lower block.
    std::size_t j[kLanes], e[kLanes];
    for (int l = 0; l < kLanes; ++l) {
      j[l] = std::size_t(line[l][k + 1]);
      e[l] = std::size_t(ledge[l][k]);
    }
    auto at_edges = [&](const std::vector<real_t>& v) {
      return gather(e, [&](std::size_t x) { return v[x]; });
    };
    const Lanes area = at_edges(lvl.edge_area);
    // An edge without area couples nothing, and a padding lane has no
    // edge: their blocks stay zero.
    const Mask has = full ? ~(area <= 0.0) : real & ~(area <= 0.0);
    const bool has_all = has.all();
    const Lanes sgn =
        Lanes::of(std::size_t(ends[e[0]].first) == i[0] ? 1.0 : -1.0,
                  std::size_t(ends[e[1]].first) == i[1] ? 1.0 : -1.0,
                  std::size_t(ends[e[2]].first) == i[2] ? 1.0 : -1.0,
                  std::size_t(ends[e[3]].first) == i[3] ? 1.0 : -1.0);
    const Lanes n_x = sgn * at_edges(lvl.edge_nx);
    const Lanes n_y = sgn * at_edges(lvl.edge_ny);
    const Lanes n_z = sgn * at_edges(lvl.edge_nz);
    // n_out/area == sgn * the unit normal bitwise (sgn is +-1).
    const Lanes h_x = sgn * at_edges(lvl.edge_ux);
    const Lanes h_y = sgn * at_edges(lvl.edge_uy);
    const Lanes h_z = sgn * at_edges(lvl.edge_uz);
    const LanePrim wi = gather_prim(w, i), wj = gather_prim(w, j);
    // The spectral radius |w.vel . nh| + c of euler::spectral_radius, with
    // the sound speed wave_speeds cached (the same sqrt(g p / rho)).
    const Lanes lam =
        (abs(lane_dot(wj, h_x, h_y, h_z)) +
         gather(j, [&](std::size_t x) { return snd[x]; })) *
        area;
    const Lanes lam_i =
        (abs(lane_dot(wi, h_x, h_y, h_z)) +
         gather(i, [&](std::size_t x) { return snd[x]; })) *
        area;
    const Lanes geo = at_edges(lvl.edge_geo);
    const Mask visc =
        a.phys.viscous ? has & (geo > 0.0) : Mask::from_bits(0);
    const bool visc_all = visc.all();
    const auto mut_of = [&](std::size_t x) { return mut[x]; };
    const auto u5_of = [&](std::size_t x) { return u[x][5]; };
    const Lanes cm =
        (mu_lam + 0.5 * (gather(i, mut_of) + gather(j, mut_of))) * geo;
    const Lanes cs =
        (mu_lam + 0.5 * (gather(i, u5_of) + gather(j, u5_of))) / kSigma * geo;
    // dR_i/du_j = 0.5 (A(w_j, n_out) - lambda_j I), and dR_j/du_i mirrored
    // with w_i and the opposite normal.
    const Mat<5> jj = lane_flux_jacobian(wj, n_x, n_y, n_z);
    const Mat<5> ji =
        lane_flux_jacobian(wi, -1.0 * n_x, -1.0 * n_y, -1.0 * n_z);
    for (int rr = 0; rr < 5; ++rr)
      for (int cc = 0; cc < 5; ++cc) {
        Lanes up = 0.5 * jj(rr, cc), lo = 0.5 * ji(rr, cc);
        if (rr == cc) {
          up = up - 0.5 * lam;
          lo = lo - 0.5 * lam_i;
          if (rr >= 1) {
            up = select_where(visc, visc_all, up - cm, up);
            lo = select_where(visc, visc_all, lo - cm, lo);
          }
        }
        row.mean.upper(rr, cc) =
            select_where(has, has_all, up, Lanes::zero());
        lower(rr, cc) = select_where(has, has_all, lo, Lanes::zero());
      }
    const Lanes up_sa = 0.0 - 0.5 * lam, lo_sa = 0.0 - 0.5 * lam_i;
    row.sa.upper(0, 0) = select_where(
        has, has_all, select_where(visc, visc_all, up_sa - cs, up_sa),
        Lanes::zero());
    lower_sa(0, 0) = select_where(
        has, has_all, select_where(visc, visc_all, lo_sa - cs, lo_sa),
        Lanes::zero());
  }
  linalg::tridiag_back_substitute<5>(
      [&](std::size_t k) -> auto& { return rows[k].mean; }, len);
  linalg::tridiag_back_substitute<1>(
      [&](std::size_t k) -> auto& { return rows[k].sa; }, len);

  for (int l = 0; l < count; ++l) {
    if (fail.lane(l)) {
      OBS_COUNT("resil.singular_pivot", 1);
      continue;
    }
    for (std::size_t k = 0; k < len; ++k) {
      BlockVec<5> du;
      for (int c = 0; c < 5; ++c) du[c] = rows[k].mean.rhs[c].lane(l);
      apply_update(a.u, std::size_t(line[l][k]), a.relax, du,
                   rows[k].sa.rhs[0].lane(l));
    }
  }
}

}  // namespace

// The diagonal blocks are gathered per node over Level::incident rather
// than scattered per edge: each edge side only updates its own node's
// block, and incident lists are in edge storage order (color-major) —
// the order the colored scatter added the terms in — so every block
// accumulates the identical sequence. The gather needs no color barriers
// and no thread ever writes another node's block. On the coarse levels,
// whose scattered node numbering made the scatter's blocks bounce between
// cores every color, that turned no speedup at 4 threads into 2.5x; at 1
// thread it costs the same as the scatter. Four nodes run side by side in
// lanes (kNodeGrain is a multiple of kLanes, so a group never straddles
// two chunks).
void assemble_diag(const Level& lvl, const Physics& phys, real_t cfl,
                   std::span<const State> u, Scratch& s) {
  static_assert(kNodeGrain % kLanes == 0);
  const std::size_t n = std::size_t(lvl.num_nodes);
  s.diag.resize(n);
  const Prim* const w = s.w.data();
  ImplicitBlock* const diag = s.diag.data();
  smp::ThreadPool::global().parallel_for(
      0, n, kNodeGrain, [&](std::size_t b, std::size_t e, int) {
        for (std::size_t i = b; i < e; i += kLanes)
          assemble_lanes(lvl, phys, cfl, u, s, i,
                         int(std::min<std::size_t>(kLanes, e - i)), diag);
        // Farfield linearization keeps boundary nodes well conditioned; it
        // comes after every edge term, as in the node-by-node sum.
        for (std::size_t i = b; i < e; ++i) {
          Vec3 bn{};
          for (const Vec3& t : lvl.boundary_normal[i]) bn += t;
          const real_t ba = norm(bn);
          if (ba > 0) {
            const real_t lam = euler::spectral_radius(w[i], bn / ba) * ba;
            for (int rr = 0; rr < 5; ++rr) diag[i].mean(rr, rr) += 0.5 * lam;
            diag[i].sa += 0.5 * lam;
          }
        }
      });
}

void point_sweep(const Level& lvl, real_t relax, std::span<const State> f,
                 std::span<const State> r, Scratch& s, std::vector<State>& u) {
  const std::size_t n = std::size_t(lvl.num_nodes);
  const ImplicitBlock* const diag = s.diag.data();
  for_nodes(n, [&](std::size_t i) {
    BlockLU<5> lu;
    BlockLU<1> lu_sa;
    if (!lu.factor_status(diag[i].mean) ||
        !lu_sa.factor_status(BlockMat<1>::diagonal(diag[i].sa))) {
      // Singular point: skip the update (explicit fallback) but make
      // the event visible instead of silently dropping it.
      OBS_COUNT("resil.singular_pivot", 1);
      return;
    }
    BlockVec<5> rhs;
    for (int c = 0; c < 5; ++c)
      rhs[c] = f[i][std::size_t(c)] - r[i][std::size_t(c)];
    BlockVec<1> rhs_sa;
    rhs_sa[0] = f[i][5] - r[i][5];
    apply_update(u, i, relax, lu.solve(rhs), lu_sa.solve(rhs_sa)[0]);
  });
}

void line_sweep(const Level& lvl, const Physics& phys, real_t relax,
                std::span<const State> f, std::span<const State> r,
                Scratch& s, std::vector<State>& u) {
  // Block-tridiagonal solves along the implicit lines, kLanes lines of one
  // length at a time; off-line couplings stay explicit (Jacobi) as in the
  // paper's scheme. Lines are node-disjoint, so batches solve in parallel;
  // each pool thread uses its own slot of rows. Batches run longest first,
  // so the long lines do not trail the sweep.
  smp::ThreadPool& pool = smp::ThreadPool::global();
  const std::size_t longest = std::size_t(lvl.lines.longest());
  if (s.line_rows.size() < std::size_t(pool.num_threads()))
    s.line_rows.resize(std::size_t(pool.num_threads()));
  for (std::vector<Scratch::LineRow>& rows : s.line_rows)
    if (rows.size() < longest) rows.resize(longest);
  OBS_COUNT("nsu3d.line_solves", lvl.lines.lines.size());
  const LineSweepArgs args{lvl, phys, relax, f, r, s, u};
  pool.parallel_for(0, lvl.line_batches.size(), kLineGrain,
                    [&](std::size_t b, std::size_t e, int tid) {
    Scratch::LineRow* const rows = s.line_rows[std::size_t(tid)].data();
    for (std::size_t k = b; k < e; ++k)
      solve_line_batch(args, lvl.line_batches[k], rows);
  });
}

}  // namespace columbia::nsu3d::kernels
