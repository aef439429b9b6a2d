#include "cart3d/kernels.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "smp/pool.hpp"
#include "support/assert.hpp"

namespace columbia::cart3d::kernels {

using cartesian::CartCell;
using cartesian::CartFace;
using cartesian::CartMesh;
using geom::Vec3;

namespace {

template <class Fn>
void for_cells(std::size_t n, Fn&& body) {
  smp::ThreadPool::global().parallel_for(
      0, n, kCellGrain, [&](std::size_t b, std::size_t e, int) {
        for (std::size_t i = b; i < e; ++i) body(i);
      });
}

Prim prim_from_array(const std::array<real_t, 5>& q) {
  return {q[0], {q[1], q[2], q[3]}, q[4]};
}

template <euler::FluxScheme S>
Cons scheme_flux(const Prim& l, const Prim& r, const Vec3& n) {
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

}  // namespace

void LevelGeom::build(const CartMesh& m, bool second_order) {
  const std::size_t n = m.cells.size();
  const std::size_t nf = m.faces.size();
  if (!built) {
    cells = n;
    faces = nf;

    // Cell volumes, read per cell per RK stage by the smoother and the
    // residual norm: the mesh's own expression, evaluated once.
    volume.resize(n);
    for (std::size_t i = 0; i < n; ++i) volume[i] = m.cell_volume(m.cells[i]);

    cut_cells.clear();
    for (std::size_t i = 0; i < n; ++i)
      if (m.cells[i].cut) cut_cells.push_back(index_t(i));

    // Per-face streams.
    fl.resize(nf);
    fr.resize(nf);
    axis.resize(nf);
    area.resize(nf);
    for (std::size_t e = 0; e < nf; ++e) {
      const CartFace& f = m.faces[e];
      fl[e] = f.left;
      fr[e] = f.right;
      axis[e] = f.axis;
      area[e] = f.area;
    }

    // Boundary-face streams.
    const std::size_t nb = m.boundary_faces.size();
    bfl.resize(nb);
    barea.resize(nb);
    bnx.resize(nb);
    bny.resize(nb);
    bnz.resize(nb);
    for (std::size_t e = 0; e < nb; ++e) {
      const CartFace& f = m.boundary_faces[e];
      bfl[e] = f.left;
      barea[e] = f.area;
      const Vec3 bn = boundary_normal(f);
      bnx[e] = bn.x;
      bny[e] = bn.y;
      bnz[e] = bn.z;
    }
    built = true;
  }
  if (!second_order || second_order_built) return;

  // Per-cell eps^2 with the exact expression the scalar limiter evaluated
  // per face side. It depends only on the cell's refinement level, so one
  // pow per level present.
  constexpr int kLevels = 256;  // every std::int8_t refinement level
  std::array<real_t, kLevels> eps2_of_level{};
  std::array<bool, kLevels> have_level{};
  eps2.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int level = m.cells[i].level;
    const std::size_t k = std::size_t(level + kLevels / 2);
    if (!have_level[k]) {
      eps2_of_level[k] = std::pow(0.3 * m.cell_width(level, 0), 3);
      have_level[k] = true;
    }
    eps2[i] = eps2_of_level[k];
  }

  // Per-face offsets.
  dabx.resize(nf);
  daby.resize(nf);
  dabz.resize(nf);
  dlx.resize(nf);
  dly.resize(nf);
  dlz.resize(nf);
  drx.resize(nf);
  dry.resize(nf);
  drz.resize(nf);
  for (std::size_t e = 0; e < nf; ++e) {
    const CartFace& f = m.faces[e];
    const Vec3 cl = m.cell_center(m.cells[std::size_t(f.left)]);
    const Vec3 cr = m.cell_center(m.cells[std::size_t(f.right)]);
    const Vec3 dab = cr - cl;
    dabx[e] = dab.x;
    daby[e] = dab.y;
    dabz[e] = dab.z;
    const Vec3 dl = f.center - cl;
    dlx[e] = dl.x;
    dly[e] = dl.y;
    dlz[e] = dl.z;
    const Vec3 dr = f.center - cr;
    drx[e] = dr.x;
    dry[e] = dr.y;
    drz[e] = dr.z;
  }

  // LSQ Gram matrices: accumulated in face order exactly as the scalar
  // path did (both face sides add the same six products — the offset signs
  // cancel in d_i d_j), then inverted once with the scalar expressions.
  std::vector<std::array<real_t, 6>> gram(n, {0, 0, 0, 0, 0, 0});
  for (std::size_t e = 0; e < nf; ++e) {
    const real_t dx = dabx[e], dy = daby[e], dz = dabz[e];
    const std::array<real_t, 6> p{dx * dx, dx * dy, dx * dz,
                                  dy * dy, dy * dz, dz * dz};
    auto& gl = gram[std::size_t(fl[e])];
    for (int k = 0; k < 6; ++k) gl[std::size_t(k)] += p[std::size_t(k)];
    auto& gr = gram[std::size_t(fr[e])];
    for (int k = 0; k < 6; ++k) gr[std::size_t(k)] += p[std::size_t(k)];
  }
  ginv.assign(n * kGinvStride, 0.0);
  singular.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& g = gram[i];
    const real_t a = g[0], b = g[1], c = g[2], d = g[3], e = g[4], f3 = g[5];
    const real_t det = a * (d * f3 - e * e) - b * (b * f3 - e * c) +
                       c * (b * e - d * c);
    if (std::abs(det) < 1e-30) {
      singular[i] = 1;
      continue;
    }
    const real_t inv = 1.0 / det;
    real_t* const gi = ginv.data() + i * kGinvStride;
    gi[0] = (d * f3 - e * e) * inv;
    gi[1] = (c * e - b * f3) * inv;
    gi[2] = (b * e - c * d) * inv;
    gi[3] = (a * f3 - c * c) * inv;
    gi[4] = (b * c - a * e) * inv;
    gi[5] = (a * d - b * b) * inv;
  }
  second_order_built = true;
}

void Scratch::resize(const LevelGeom& g, bool second_order) {
  w.resize(g.cells);
  if (second_order) {
    pb.resize(g.cells * kPrimStride);
    gb.resize(g.cells * kGradStride);
    rb.resize(g.cells * kRhsStride);
    ph.resize(g.cells * kPhiStride);
    fdq.resize(g.faces * kFdqStride);
  }
}

namespace {

/// Vectorizable LSQ rhs update for one face side (restrict parameters:
/// the two cells of a face are distinct, so the blocks never overlap).
inline void lsq_rhs_edge(real_t* __restrict ra, real_t* __restrict rbv,
                         const real_t* __restrict pa,
                         const real_t* __restrict pbv, real_t dx, real_t dy,
                         real_t dz) {
  for (std::size_t c = 0; c < 5; ++c) {
    const real_t dq = pbv[c] - pa[c];
    ra[c] += dq * dx;
    ra[5 + c] += dq * dy;
    ra[10 + c] += dq * dz;
    const real_t dqr = pa[c] - pbv[c];
    rbv[c] += dqr * -dx;
    rbv[5 + c] += dqr * -dy;
    rbv[10 + c] += dqr * -dz;
  }
}

/// Directional differences g . d for both face sides, cached per face and
/// reused bitwise by the reconstruction (same association as geom::dot).
inline void limiter_fdq(real_t* __restrict fd, const real_t* __restrict ga,
                        const real_t* __restrict gbb, real_t dlx_, real_t dly_,
                        real_t dlz_, real_t drx_, real_t dry_, real_t drz_) {
  for (std::size_t c = 0; c < 5; ++c) {
    fd[c] = (ga[c] * dlx_ + ga[5 + c] * dly_) + ga[10 + c] * dlz_;
    fd[5 + c] = (gbb[c] * drx_ + gbb[5 + c] * dry_) + gbb[10 + c] * drz_;
  }
}

template <euler::FluxScheme S>
void flux_faces(const LevelGeom& g, const Scratch& s, bool second_order,
                std::vector<Cons>& res) {
  const real_t* const pb = s.pb.data();
  const real_t* const ph = s.ph.data();
  const real_t* const fdq = s.fdq.data();
  const Prim* const w = s.w.data();
  Cons* const r = res.data();
  for (std::size_t e = 0; e < g.faces; ++e) {
    const std::size_t a = std::size_t(g.fl[e]);
    const std::size_t b = std::size_t(g.fr[e]);
    const Vec3 nrm = axis_normal(g.axis[e]);
    Prim wl = w[a], wr = w[b];
    if (second_order) {
      const real_t* const pa = pb + a * kPrimStride;
      const real_t* const pbv = pb + b * kPrimStride;
      const real_t* const pha = ph + a * kPhiStride;
      const real_t* const phb = ph + b * kPhiStride;
      const real_t* const fd = fdq + e * kFdqStride;
      std::array<real_t, 5> ql, qr;
      for (std::size_t c = 0; c < 5; ++c) {
        ql[c] = pa[c] + pha[c] * fd[c];
        qr[c] = pbv[c] + phb[c] * fd[5 + c];
      }
      // Exact inverse of the scalar guard (q[0] <= 0 || q[4] <= 0 falls
      // back to the cell mean) so NaN reconstructions take the same path.
      if (!(ql[0] <= 0 || ql[4] <= 0)) wl = prim_from_array(ql);
      if (!(qr[0] <= 0 || qr[4] <= 0)) wr = prim_from_array(qr);
    }
    const Cons flux = scheme_flux<S>(wl, wr, nrm);
    const real_t ar = g.area[e];
    for (std::size_t c = 0; c < 5; ++c) {
      const real_t fc = ar * flux[c];
      r[a][c] += fc;
      r[b][c] -= fc;
    }
  }
}

}  // namespace

void residual(const LevelGeom& g, const CartMesh& m, const Prim& freestream,
              euler::FluxScheme scheme, std::span<const Cons> u,
              bool second_order, Scratch& s, std::vector<Cons>& res) {
  const std::size_t n = g.cells;
  COLUMBIA_REQUIRE(g.built && (!second_order || g.second_order_built));
  s.resize(g, second_order);
  res.resize(n);

  // Fused setup pass: primitive cache + zero the residual; with second
  // order also the blocked primitives, the limiter seed (phi = 1), the
  // neighbor min/max (own value) and zeroed LSQ rhs blocks — all stores
  // nothing reads before the later sweeps, so fusing is bit-neutral. A
  // first-order residual reads only the AoS primitives.
  Prim* const w = s.w.data();
  real_t* const pb = s.pb.data();
  real_t* const gb = s.gb.data();
  real_t* const rb = s.rb.data();
  real_t* const ph = s.ph.data();
  Cons* const r = res.data();
  for_cells(n, [&](std::size_t i) {
    const Prim wi = euler::to_primitive(u[i]);
    w[i] = wi;
    if (second_order) {
      real_t* const __restrict p = pb + i * kPrimStride;
      p[0] = wi.rho;
      p[1] = wi.vel.x;
      p[2] = wi.vel.y;
      p[3] = wi.vel.z;
      p[4] = wi.p;
      real_t* const __restrict bl = gb + i * kGradStride;
      real_t* const __restrict rl = rb + i * kRhsStride;
      real_t* const __restrict f = ph + i * kPhiStride;
      for (std::size_t c = 0; c < 5; ++c) {
        bl[15 + c] = bl[20 + c] = p[c];  // qmin/qmax seed
        rl[c] = rl[5 + c] = rl[10 + c] = 0.0;
        f[c] = 1.0;
      }
    }
    r[i] = Cons{};
  });

  if (second_order) {
    // LSQ rhs + neighbor min/max, fused into one serial face sweep (both
    // accumulate per cell in face order, exactly as the two scalar sweeps
    // did; they write disjoint arrays).
    for (std::size_t e = 0; e < g.faces; ++e) {
      const std::size_t a = std::size_t(g.fl[e]);
      const std::size_t b = std::size_t(g.fr[e]);
      lsq_rhs_edge(rb + a * kRhsStride, rb + b * kRhsStride,
                   pb + a * kPrimStride, pb + b * kPrimStride, g.dabx[e],
                   g.daby[e], g.dabz[e]);
      real_t* const __restrict bl = gb + a * kGradStride;
      real_t* const __restrict br = gb + b * kGradStride;
      const real_t* const __restrict pa = pb + a * kPrimStride;
      const real_t* const __restrict pbv = pb + b * kPrimStride;
      for (std::size_t c = 0; c < 5; ++c) {
        bl[15 + c] = std::min(bl[15 + c], pbv[c]);
        bl[20 + c] = std::max(bl[20 + c], pbv[c]);
        br[15 + c] = std::min(br[15 + c], pa[c]);
        br[20 + c] = std::max(br[20 + c], pa[c]);
      }
    }

    // Per-cell 3x3 solves against the precomputed Gram inverses (the
    // scalar path rebuilt and re-inverted the Gram matrix every call).
    const real_t* const ginv = g.ginv.data();
    const unsigned char* const sing = g.singular.data();
    for_cells(n, [&](std::size_t i) {
      real_t* const __restrict bl = gb + i * kGradStride;
      if (sing[i]) {
        for (std::size_t c = 0; c < 15; ++c) bl[c] = 0.0;  // isolated cell
        return;
      }
      const real_t* const __restrict gi = ginv + i * kGinvStride;
      const real_t* const __restrict rl = rb + i * kRhsStride;
      for (std::size_t c = 0; c < 5; ++c) {
        const real_t rx = rl[c], ry = rl[5 + c], rz = rl[10 + c];
        bl[c] = gi[0] * rx + gi[1] * ry + gi[2] * rz;
        bl[5 + c] = gi[1] * rx + gi[3] * ry + gi[4] * rz;
        bl[10 + c] = gi[2] * rx + gi[4] * ry + gi[5] * rz;
      }
    });

    // Venkatakrishnan limiter sweep; the directional differences are
    // cached per face for the flux reconstruction.
    const real_t* const eps2 = g.eps2.data();
    real_t* const fdq = s.fdq.data();
    for (std::size_t e = 0; e < g.faces; ++e) {
      const std::size_t a = std::size_t(g.fl[e]);
      const std::size_t b = std::size_t(g.fr[e]);
      const real_t* const ga = gb + a * kGradStride;
      const real_t* const gbb = gb + b * kGradStride;
      const real_t* const pa = pb + a * kPrimStride;
      const real_t* const pbv = pb + b * kPrimStride;
      real_t* const pha = ph + a * kPhiStride;
      real_t* const phb = ph + b * kPhiStride;
      real_t* const fd = fdq + e * kFdqStride;
      limiter_fdq(fd, ga, gbb, g.dlx[e], g.dly[e], g.dlz[e], g.drx[e],
                  g.dry[e], g.drz[e]);
      const real_t ea = eps2[a], eb = eps2[b];
      for (std::size_t c = 0; c < 5; ++c) {
        const real_t dqa = fd[c];
        real_t lim_a = 1.0;
        if (dqa > 1e-14)
          lim_a = venkat(ga[20 + c] - pa[c], dqa, ea);
        else if (dqa < -1e-14)
          lim_a = venkat(pa[c] - ga[15 + c], -dqa, ea);
        pha[c] = std::min(pha[c], lim_a);
        const real_t dqb = fd[5 + c];
        real_t lim_b = 1.0;
        if (dqb > 1e-14)
          lim_b = venkat(gbb[20 + c] - pbv[c], dqb, eb);
        else if (dqb < -1e-14)
          lim_b = venkat(pbv[c] - gbb[15 + c], -dqb, eb);
        phb[c] = std::min(phb[c], lim_b);
      }
    }
  }

  // Interior faces (scheme hoisted out of the sweep).
  switch (scheme) {
    case euler::FluxScheme::Roe:
      flux_faces<euler::FluxScheme::Roe>(g, s, second_order, res);
      break;
    case euler::FluxScheme::VanLeer:
      flux_faces<euler::FluxScheme::VanLeer>(g, s, second_order, res);
      break;
    case euler::FluxScheme::Rusanov:
      flux_faces<euler::FluxScheme::Rusanov>(g, s, second_order, res);
      break;
  }

  // Domain (farfield) boundary faces.
  for (std::size_t e = 0; e < g.bfl.size(); ++e) {
    const std::size_t i = std::size_t(g.bfl[e]);
    const Vec3 nrm{g.bnx[e], g.bny[e], g.bnz[e]};
    const Cons flux = euler::farfield_flux(w[i], freestream, nrm, scheme);
    const real_t ar = g.barea[e];
    for (std::size_t c = 0; c < 5; ++c) r[i][c] += ar * flux[c];
  }

  // Embedded (cut-cell) walls: only the precomputed cut list is visited
  // (cut indices are unique, so the scatter is race-free).
  const index_t* const cut = g.cut_cells.data();
  for_cells(g.cut_cells.size(), [&](std::size_t k) {
    const std::size_t i = std::size_t(cut[k]);
    const Cons flux = euler::wall_flux(w[i], m.cells[i].wall_area);
    for (std::size_t q = 0; q < 5; ++q) r[i][q] += flux[q];
  });
}

}  // namespace columbia::cart3d::kernels
