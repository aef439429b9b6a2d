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
// determinism contract). The edge grain is sized for the coarse levels: a
// lock-free chunk claim costs one CAS, so 64-edge chunks let every thread
// share a coarse level's small colors (level 1 of the Fig. 14a wing: 20
// colors of 4-1,170 edges).
constexpr std::size_t kEdgeGrain = 64;
constexpr std::size_t kLineGrain = 2;

/// Runs `body(edge)` over every edge, one color span at a time. Edges in
/// a span touch disjoint nodes (Level::color_offsets), so the scatter is
/// race-free; processing colors in order keeps per-node accumulation
/// order fixed for every thread count.
template <class Fn>
void for_edges_colored(const Level& lvl, Fn&& body) {
  smp::ThreadPool& pool = smp::ThreadPool::global();
  for (std::size_t c = 0; c + 1 < lvl.color_offsets.size(); ++c)
    pool.parallel_for(lvl.color_offsets[c], lvl.color_offsets[c + 1],
                      kEdgeGrain, [&](std::size_t b, std::size_t e, int) {
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
    for_edges_colored(lvl, [&](std::size_t e) {
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
  for_edges_colored(lvl, [&](std::size_t e) {
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
  for_edges_colored(lvl, [&](std::size_t e) {
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
  for_edges_colored(lvl, [&](std::size_t e) {
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

// The diagonal blocks are gathered per node over Level::incident rather
// than scattered per edge: each edge side only updates its own node's
// block, and incident lists are in edge storage order (color-major) —
// the order the colored scatter added the terms in — so every block
// accumulates the identical sequence. The gather needs no color barriers
// and no thread ever writes another node's block. On the coarse levels,
// whose scattered node numbering made the scatter's blocks bounce between
// cores every color, that turned no speedup at 4 threads into 2.5x; at 1
// thread it costs the same as the scatter.
void assemble_diag(const Level& lvl, const Physics& phys, real_t cfl,
                   std::span<const State> u, Scratch& s) {
  const std::size_t n = std::size_t(lvl.num_nodes);
  s.diag.resize(n);
  const Prim* const w = s.w.data();
  const real_t* const mut = s.mut.data();
  const real_t* const wave = s.wave.data();
  const real_t* const snd = s.snd.data();
  const Edge* const ends = lvl.edges.data();
  ImplicitBlock* const diag = s.diag.data();
  const real_t mu_lam = phys.mu_lam;
  const bool viscous = phys.viscous;

  for_nodes(n, [&](std::size_t i) {
    const real_t dt =
        wave[i] > 0 ? cfl * lvl.node_volume[i] / wave[i] : 1e30;
    const real_t d0 = lvl.node_volume[i] / dt;
    BlockMat<5> d = BlockMat<5>::diagonal(d0);
    real_t dsa = d0;
    for (const index_t eid : lvl.incident[i]) {
      const std::size_t e = std::size_t(eid);
      const real_t area = lvl.edge_area[e];
      if (area <= 0) continue;
      const Vec3 nh{lvl.edge_ux[e], lvl.edge_uy[e], lvl.edge_uz[e]};
      const real_t lam = (std::abs(dot(w[i].vel, nh)) + snd[i]) * area;
      // dR_a/du_a += 0.5 (A(w_a, +n) + lambda I); likewise for b with -n.
      const Vec3 nrm = lvl.edge_normal(e);
      const BlockMat<5> j = euler::flux_jacobian(
          w[i], std::size_t(ends[e].first) == i ? nrm : -1.0 * nrm);
      for (int rr = 0; rr < 5; ++rr)
        for (int cc = 0; cc < 5; ++cc) d(rr, cc) += 0.5 * j(rr, cc);
      for (int rr = 0; rr < 5; ++rr) d(rr, rr) += 0.5 * lam;
      dsa += 0.5 * lam;
      if (viscous && lvl.edge_geo[e] > 0) {
        const std::size_t a = std::size_t(ends[e].first);
        const std::size_t b = std::size_t(ends[e].second);
        const real_t geo = lvl.edge_geo[e];
        const real_t cm = (mu_lam + 0.5 * (mut[a] + mut[b])) * geo;
        const real_t cs =
            (mu_lam + 0.5 * (u[a][5] + u[b][5])) / kSigma * geo;
        for (int rr = 1; rr <= 4; ++rr) d(rr, rr) += cm;
        dsa += cs;
      }
    }
    // Farfield linearization keeps boundary nodes well conditioned.
    Vec3 bn{};
    for (const Vec3& t : lvl.boundary_normal[i]) bn += t;
    const real_t ba = norm(bn);
    if (ba > 0) {
      const real_t lam = euler::spectral_radius(w[i], bn / ba) * ba;
      for (int rr = 0; rr < 5; ++rr) d(rr, rr) += 0.5 * lam;
      dsa += 0.5 * lam;
    }
    diag[i] = {d, dsa};
  });
}

namespace {

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

}  // namespace

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
  // Block-tridiagonal solve along each implicit line; off-line couplings
  // stay explicit (Jacobi) as in the paper's scheme. Lines are
  // node-disjoint, so they solve in parallel; each pool thread uses its
  // own factorization scratch.
  smp::ThreadPool& pool = smp::ThreadPool::global();
  const auto& all_lines = lvl.lines.lines;
  if (s.line_scratch.size() < std::size_t(pool.num_threads())) {
    std::size_t longest = 0;
    for (const auto& line : all_lines) longest = std::max(longest, line.size());
    s.line_scratch.resize(std::size_t(pool.num_threads()));
    for (Scratch::LineScratch& ls : s.line_scratch) {
      ls.mean.reserve(longest);
      ls.sa.reserve(longest);
    }
  }
  const Prim* const w = s.w.data();
  const real_t* const mut = s.mut.data();
  const ImplicitBlock* const diag = s.diag.data();
  const real_t mu_lam = phys.mu_lam;
  const bool viscous = phys.viscous;
  OBS_COUNT("nsu3d.line_solves", all_lines.size());
  pool.parallel_for(0, all_lines.size(), kLineGrain,
                    [&](std::size_t lb, std::size_t le, int tid) {
    Scratch::LineScratch& ls = s.line_scratch[std::size_t(tid)];
    Scratch::Tridiag<5>& mf = ls.mean;
    Scratch::Tridiag<1>& sa = ls.sa;
    for (std::size_t li = lb; li < le; ++li) {
      const auto& line = all_lines[li];
      const auto& ledges = lvl.line_edges[li];
      const std::size_t len = line.size();
      mf.assign(len);
      sa.assign(len);
      for (std::size_t k = 0; k < len; ++k) {
        const std::size_t i = std::size_t(line[k]);
        mf.dd[k] = diag[i].mean;
        sa.dd[k](0, 0) = diag[i].sa;
        for (int c = 0; c < 5; ++c)
          mf.rhs[k][c] = f[i][std::size_t(c)] - r[i][std::size_t(c)];
        sa.rhs[k][0] = f[i][5] - r[i][5];
      }
      // Off-diagonal blocks for consecutive line nodes; the connecting
      // edge was located once at level construction (Level::line_edges).
      for (std::size_t k = 0; k + 1 < len; ++k) {
        const auto [eid, sgn] = ledges[k];
        if (eid == kInvalidIndex) continue;
        const std::size_t ei = std::size_t(eid);
        const real_t area = lvl.edge_area[ei];
        if (area <= 0) continue;
        const std::size_t i = std::size_t(line[k]);
        const std::size_t j = std::size_t(line[k + 1]);
        const Vec3 n_out = sgn * lvl.edge_normal(ei);
        // n_out/area == sgn * edge_unit bitwise (sgn is +-1).
        const Vec3 nh = sgn * lvl.edge_unit(ei);
        // dR_i/du_j = 0.5 (A(w_j, n_out) - lambda_j I).
        const BlockMat<5> jj = euler::flux_jacobian(w[j], n_out);
        const real_t lam = euler::spectral_radius(w[j], nh) * area;
        BlockMat<5>& off = mf.upper[k];
        for (int rr = 0; rr < 5; ++rr) {
          for (int cc = 0; cc < 5; ++cc) off(rr, cc) = 0.5 * jj(rr, cc);
          off(rr, rr) -= 0.5 * lam;
        }
        real_t& off_sa = sa.upper[k](0, 0);
        off_sa -= 0.5 * lam;
        real_t cm = 0, cs = 0;
        const bool visc_edge = viscous && lvl.edge_geo[ei] > 0;
        if (visc_edge) {
          const real_t geo = lvl.edge_geo[ei];
          cm = (mu_lam + 0.5 * (mut[i] + mut[j])) * geo;
          cs = (mu_lam + 0.5 * (u[i][5] + u[j][5])) / kSigma * geo;
          for (int rr = 1; rr <= 4; ++rr) off(rr, rr) -= cm;
          off_sa -= cs;
        }
        // dR_j/du_i: mirrored with w_i and the opposite normal.
        const BlockMat<5> ji = euler::flux_jacobian(w[i], -1.0 * n_out);
        const real_t lam_i = euler::spectral_radius(w[i], nh) * area;
        BlockMat<5>& offl = mf.lower[k + 1];
        for (int rr = 0; rr < 5; ++rr) {
          for (int cc = 0; cc < 5; ++cc) offl(rr, cc) = 0.5 * ji(rr, cc);
          offl(rr, rr) -= 0.5 * lam_i;
        }
        real_t& offl_sa = sa.lower[k + 1](0, 0);
        offl_sa -= 0.5 * lam_i;
        if (visc_edge) {
          for (int rr = 1; rr <= 4; ++rr) offl(rr, rr) -= cm;
          offl_sa -= cs;
        }
      }
      if (!linalg::solve_block_tridiag_status<5>(mf.lower, mf.dd, mf.upper,
                                                 mf.rhs, mf.lu) ||
          !linalg::solve_block_tridiag_status<1>(sa.lower, sa.dd, sa.upper,
                                                 sa.rhs, sa.lu)) {
        OBS_COUNT("resil.singular_pivot", 1);
        continue;
      }
      for (std::size_t k = 0; k < len; ++k)
        apply_update(u, std::size_t(line[k]), relax, mf.rhs[k],
                     sa.rhs[k][0]);
    }
  });
}

}  // namespace columbia::nsu3d::kernels
