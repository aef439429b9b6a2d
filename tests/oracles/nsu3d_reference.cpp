#include "oracles/nsu3d_reference.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "oracles/block_tridiag.hpp"
#include "oracles/flux_jacobian.hpp"

namespace columbia::nsu3d::kernels {

using euler::Prim;
using geom::Vec3;
using linalg::BlockLU;
using linalg::BlockMat;
using linalg::BlockVec;

namespace {

real_t venkat(real_t dplus, real_t dq, real_t eps2) {
  const real_t num = (dplus * dplus + eps2) + 2.0 * dplus * dq;
  const real_t den = dplus * dplus + 2.0 * dq * dq + dplus * dq + eps2;
  return den > 0 ? num / den : 1.0;
}

/// Scalar component c of the reconstruction set [rho, u, v, w, p, nut]
/// (the reference path's per-component switch, retained verbatim).
real_t prim_scalar(const Prim& w, real_t nut, int c) {
  switch (c) {
    case 0: return w.rho;
    case 1: return w.vel.x;
    case 2: return w.vel.y;
    case 3: return w.vel.z;
    case 4: return w.p;
    default: return nut;
  }
}

BlockVec<6> rhs_of(std::span<const State> f, std::span<const State> r,
                   std::size_t i) {
  BlockVec<6> rhs;
  for (int c = 0; c < 6; ++c) rhs[c] = f[i][std::size_t(c)] - r[i][std::size_t(c)];
  return rhs;
}

void apply_update(std::vector<State>& u, std::size_t i, real_t relax,
                  const BlockVec<6>& du) {
  State unew = u[i];
  for (int c = 0; c < 6; ++c) unew[std::size_t(c)] += relax * du[c];
  unew[5] = std::max<real_t>(unew[5], 0);
  if (state_valid(unew)) u[i] = unew;
}

}  // namespace

void residual_reference(const Level& lvl, const Physics& phys, int level,
                        std::span<const State> u, bool second_order,
                        ReferenceScratch& ws, std::vector<State>& res) {
  const std::size_t n = std::size_t(lvl.num_nodes);
  const real_t mu_lam = phys.mu_lam;
  const bool viscous = phys.viscous;
  res.assign(n, State{});

  // Primitive caches.
  ws.w.resize(n);
  ws.nut.resize(n);
  ws.mut.resize(n);
  auto& w = ws.w;
  auto& nut = ws.nut;
  auto& mut = ws.mut;
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = mean_prim(u[i]);
    nut[i] = u[i][5] / u[i][0];
    mut[i] =
        viscous ? eddy_viscosity(w[i].rho, nut[i], mu_lam / w[i].rho) : 0.0;
  }

  // Green-Gauss gradients of [rho, u, v, w, p, nut].
  const bool need_grad = second_order || viscous;
  auto& grad = ws.grad;
  if (need_grad) {
    grad.assign(n, {});
    for (std::size_t e = 0; e < lvl.edges.size(); ++e) {
      const auto [a, b] = lvl.edges[e];
      const Vec3 nrm = lvl.edge_normal(e);
      for (int c = 0; c < 6; ++c) {
        const real_t qf =
            0.5 * (prim_scalar(w[std::size_t(a)], nut[std::size_t(a)], c) +
                   prim_scalar(w[std::size_t(b)], nut[std::size_t(b)], c));
        grad[std::size_t(a)][std::size_t(c)] += qf * nrm;
        grad[std::size_t(b)][std::size_t(c)] -= qf * nrm;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      Vec3 bn{};
      for (const Vec3& t : lvl.boundary_normal[i]) bn += t;
      for (int c = 0; c < 6; ++c) {
        grad[i][std::size_t(c)] += prim_scalar(w[i], nut[i], c) * bn;
        grad[i][std::size_t(c)] = grad[i][std::size_t(c)] /
                                  std::max(lvl.node_volume[i], real_t(1e-300));
      }
    }
  }

  // Venkatakrishnan limiter for the fine-level reconstruction.
  auto& phi = ws.phi;
  if (second_order) {
    auto& qmin = ws.qmin;
    auto& qmax = ws.qmax;
    qmin.resize(n);
    qmax.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      for (int c = 0; c < 6; ++c)
        qmin[i][std::size_t(c)] = qmax[i][std::size_t(c)] =
            prim_scalar(w[i], nut[i], c);
    for (std::size_t e = 0; e < lvl.edges.size(); ++e) {
      const auto [a, b] = lvl.edges[e];
      for (int c = 0; c < 6; ++c) {
        const real_t qa =
            prim_scalar(w[std::size_t(a)], nut[std::size_t(a)], c);
        const real_t qb =
            prim_scalar(w[std::size_t(b)], nut[std::size_t(b)], c);
        auto& mna = qmin[std::size_t(a)][std::size_t(c)];
        auto& mxa = qmax[std::size_t(a)][std::size_t(c)];
        auto& mnb = qmin[std::size_t(b)][std::size_t(c)];
        auto& mxb = qmax[std::size_t(b)][std::size_t(c)];
        mna = std::min(mna, qb);
        mxa = std::max(mxa, qb);
        mnb = std::min(mnb, qa);
        mxb = std::max(mxb, qa);
      }
    }
    phi.assign(n, {1, 1, 1, 1, 1, 1});
    for (std::size_t e = 0; e < lvl.edges.size(); ++e) {
      const auto [a, b] = lvl.edges[e];
      const Vec3 dab{lvl.edge_dx[e], lvl.edge_dy[e], lvl.edge_dz[e]};
      const real_t eps2 = lvl.edge_eps2[e];
      for (int side = 0; side < 2; ++side) {
        const std::size_t i = std::size_t(side == 0 ? a : b);
        const Vec3 d = side == 0 ? dab : -1.0 * dab;
        for (int c = 0; c < 6; ++c) {
          const real_t dq = dot(grad[i][std::size_t(c)], d);
          real_t lim = 1.0;
          if (dq > 1e-14)
            lim = venkat(qmax[i][std::size_t(c)] - prim_scalar(w[i], nut[i], c),
                         dq, eps2);
          else if (dq < -1e-14)
            lim = venkat(prim_scalar(w[i], nut[i], c) - qmin[i][std::size_t(c)],
                         -dq, eps2);
          phi[i][std::size_t(c)] = std::min(phi[i][std::size_t(c)], lim);
        }
      }
    }
  }

  auto reconstruct = [&](std::size_t i, const Vec3& d,
                         real_t& nut_out) -> Prim {
    nut_out = nut[i];
    if (!second_order) return w[i];
    std::array<real_t, 6> q{w[i].rho, w[i].vel.x, w[i].vel.y, w[i].vel.z,
                            w[i].p, nut[i]};
    for (int c = 0; c < 6; ++c)
      q[std::size_t(c)] +=
          phi[i][std::size_t(c)] * dot(grad[i][std::size_t(c)], d);
    if (q[0] <= 0 || q[4] <= 0) return w[i];
    nut_out = q[5];
    return Prim{q[0], {q[1], q[2], q[3]}, q[4]};
  };

  // Edge loop: convective + viscous fluxes (per-edge geometry divisions as
  // in the seed; this is the baseline micro_kernels measures against).
  for (std::size_t e = 0; e < lvl.edges.size(); ++e) {
    const auto [ai, bi] = lvl.edges[e];
    const std::size_t a = std::size_t(ai), b = std::size_t(bi);
    const real_t area = lvl.edge_area[e];
    if (area <= 0) continue;
    const Vec3 nh{lvl.edge_ux[e], lvl.edge_uy[e], lvl.edge_uz[e]};
    const Vec3 dab{lvl.edge_dx[e], lvl.edge_dy[e], lvl.edge_dz[e]};
    real_t nut_l, nut_r;
    const Prim wl = reconstruct(a, dab, nut_l);
    const Prim wr = reconstruct(b, -1.0 * dab, nut_r);
    const euler::Cons flux = euler::numerical_flux(wl, wr, nh, phys.flux);
    const real_t mdot = flux[0] * area;
    const real_t fnut = mdot * (mdot >= 0 ? nut_l : nut_r);
    for (std::size_t c = 0; c < 5; ++c) {
      res[a][c] += area * flux[c];
      res[b][c] -= area * flux[c];
    }
    res[a][5] += fnut;
    res[b][5] -= fnut;

    if (viscous && lvl.edge_length[e] > 0) {
      const real_t geo = area / lvl.edge_length[e];
      const real_t mu_m = mu_lam + 0.5 * (mut[a] + mut[b]);
      const real_t cm = mu_m * geo;
      const Vec3 dvel = w[b].vel - w[a].vel;
      res[a][1] -= cm * dvel.x;
      res[a][2] -= cm * dvel.y;
      res[a][3] -= cm * dvel.z;
      res[b][1] += cm * dvel.x;
      res[b][2] += cm * dvel.y;
      res[b][3] += cm * dvel.z;
      const real_t ck =
          (mu_lam / kPrandtl + 0.5 * (mut[a] + mut[b]) / kPrandtlTurb) *
          euler::kGamma / (euler::kGamma - 1) * geo;
      const real_t dT = w[b].p / w[b].rho - w[a].p / w[a].rho;
      const Vec3 vm = 0.5 * (w[a].vel + w[b].vel);
      const real_t dke = dot(vm, dvel);
      res[a][4] -= ck * dT + cm * dke;
      res[b][4] += ck * dT + cm * dke;
      const real_t rho_m = 0.5 * (w[a].rho + w[b].rho);
      const real_t nu_m = mu_lam / rho_m;
      const real_t nut_m = 0.5 * (nut[a] + nut[b]);
      const real_t cs =
          rho_m * (nu_m + std::max<real_t>(nut_m, 0)) / kSigma * geo;
      const real_t dnt = nut[b] - nut[a];
      res[a][5] -= cs * dnt;
      res[b][5] += cs * dnt;
    }
  }

  // Boundary closures.
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3& fn =
        lvl.boundary_normal[i][std::size_t(mesh::BoundaryTag::Farfield)];
    const real_t fa = norm(fn);
    if (fa > 0) {
      const Vec3 nh = fn / fa;
      const euler::Cons flux =
          euler::farfield_flux(w[i], phys.freestream, nh, phys.flux);
      for (std::size_t c = 0; c < 5; ++c) res[i][c] += fa * flux[c];
      const real_t mdot = flux[0] * fa;
      res[i][5] += mdot * (mdot >= 0 ? nut[i] : phys.nut_inf);
    }
    for (mesh::BoundaryTag tag :
         {mesh::BoundaryTag::Wall, mesh::BoundaryTag::Symmetry}) {
      const Vec3& bn = lvl.boundary_normal[i][std::size_t(tag)];
      if (dot(bn, bn) > 0) {
        const euler::Cons flux = euler::wall_flux(w[i], bn);
        for (std::size_t c = 0; c < 5; ++c) res[i][c] += flux[c];
      }
    }
  }

  // Strong-BC residual projection.
  if (level == 0) {
    for (std::size_t i = 0; i < n; ++i) {
      if (viscous && lvl.is_wall_node(index_t(i))) {
        res[i][1] = res[i][2] = res[i][3] = 0;
        res[i][5] = 0;
        continue;
      }
      const Vec3& sn =
          lvl.boundary_normal[i][std::size_t(mesh::BoundaryTag::Symmetry)];
      const real_t s2 = dot(sn, sn);
      if (s2 > 0) {
        const Vec3 nh = sn / std::sqrt(s2);
        Vec3 rm{res[i][1], res[i][2], res[i][3]};
        rm -= dot(rm, nh) * nh;
        res[i][1] = rm.x;
        res[i][2] = rm.y;
        res[i][3] = rm.z;
      }
    }
  }

  // SA source terms (production - destruction), volume-scaled.
  if (viscous) {
    for (std::size_t i = 0; i < n; ++i) {
      const real_t d = std::max(lvl.wall_distance[i], real_t(1e-8));
      const real_t nu = mu_lam / w[i].rho;
      const real_t nt = std::max<real_t>(nut[i], 0);
      const Vec3 gx = grad[i][1], gy = grad[i][2], gz = grad[i][3];
      const Vec3 omega{gz.y - gy.z, gx.z - gz.x, gy.x - gx.y};
      const real_t sv = norm(omega);
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
      const real_t g = rr + kCw2 * (std::pow(rr, 6) - rr);
      const real_t c6 = std::pow(kCw3, 6);
      const real_t fw =
          g * std::pow((1.0 + c6) / (std::pow(g, 6) + c6), 1.0 / 6.0);
      const real_t destr = kCw1 * fw * w[i].rho * (nt / d) * (nt / d);
      res[i][5] += lvl.node_volume[i] * (destr - prod);
    }
  }
}


void assemble_diag_reference(const Level& lvl, const Physics& phys,
                             real_t cfl, std::span<const State> u,
                             const Scratch& s,
                             std::vector<BlockMat<6>>& diag) {
  const std::size_t n = std::size_t(lvl.num_nodes);
  diag.resize(n);
  const real_t mu_lam = phys.mu_lam;
  const bool viscous = phys.viscous;
  for (std::size_t i = 0; i < n; ++i) {
    const Prim& wi = s.w[i];
    const real_t dt =
        s.wave[i] > 0 ? cfl * lvl.node_volume[i] / s.wave[i] : 1e30;
    BlockMat<6> d = BlockMat<6>::diagonal(lvl.node_volume[i] / dt);
    for (const index_t eid : lvl.incident[i]) {
      const std::size_t e = std::size_t(eid);
      const real_t area = lvl.edge_area[e];
      if (area <= 0) continue;
      const Vec3 nh{lvl.edge_ux[e], lvl.edge_uy[e], lvl.edge_uz[e]};
      const real_t lam = (std::abs(dot(wi.vel, nh)) + s.snd[i]) * area;
      // dR_a/du_a += 0.5 (A(w_a, +n) + lambda I); likewise for b with -n.
      const bool side_a = std::size_t(lvl.edges[e].first) == i;
      const BlockMat<5> j = euler::flux_jacobian(
          wi, side_a ? lvl.edge_normal(e) : -1.0 * lvl.edge_normal(e));
      for (int rr = 0; rr < 5; ++rr)
        for (int cc = 0; cc < 5; ++cc) d(rr, cc) += 0.5 * j(rr, cc);
      for (int rr = 0; rr < 5; ++rr) d(rr, rr) += 0.5 * lam;
      d(5, 5) += 0.5 * lam;
      if (viscous && lvl.edge_geo[e] > 0) {
        const std::size_t a = std::size_t(lvl.edges[e].first);
        const std::size_t b = std::size_t(lvl.edges[e].second);
        const real_t geo = lvl.edge_geo[e];
        const real_t cm = (mu_lam + 0.5 * (s.mut[a] + s.mut[b])) * geo;
        const real_t cs =
            (mu_lam + 0.5 * (u[a][5] + u[b][5])) / kSigma * geo;
        for (int rr = 1; rr <= 4; ++rr) d(rr, rr) += cm;
        d(5, 5) += cs;
      }
    }
    // Farfield linearization keeps boundary nodes well conditioned.
    Vec3 bn{};
    for (const Vec3& t : lvl.boundary_normal[i]) bn += t;
    const real_t ba = norm(bn);
    if (ba > 0) {
      const real_t lam = euler::spectral_radius(wi, bn / ba) * ba;
      for (int rr = 0; rr < 6; ++rr) d(rr, rr) += 0.5 * lam;
    }
    diag[i] = d;
  }
}

void point_sweep_reference(const Level& lvl, real_t relax,
                           std::span<const State> f, std::span<const State> r,
                           const std::vector<BlockMat<6>>& diag,
                           std::vector<State>& u) {
  for (std::size_t i = 0; i < std::size_t(lvl.num_nodes); ++i) {
    BlockLU<6> lu;
    if (!lu.factor_status(diag[i])) {
      OBS_COUNT("resil.singular_pivot", 1);
      continue;
    }
    apply_update(u, i, relax, lu.solve(rhs_of(f, r, i)));
  }
}

void line_sweep_reference(const Level& lvl, const Physics& phys, real_t relax,
                          std::span<const State> f, std::span<const State> r,
                          const Scratch& s,
                          const std::vector<BlockMat<6>>& diag,
                          std::vector<State>& u) {
  const Prim* const w = s.w.data();
  const real_t* const mut = s.mut.data();
  const real_t mu_lam = phys.mu_lam;
  const bool viscous = phys.viscous;
  for (std::size_t li = 0; li < lvl.lines.lines.size(); ++li) {
    const auto line = lvl.lines.lines[li];
    const auto ledges = lvl.line_edges[li];
    const std::size_t len = line.size();
    std::vector<BlockMat<6>> lower(len), dd(len), upper(len);
    std::vector<BlockVec<6>> rhs(len);
    for (std::size_t k = 0; k < len; ++k) {
      const std::size_t i = std::size_t(line[k]);
      dd[k] = diag[i];
      rhs[k] = rhs_of(f, r, i);
    }
    for (std::size_t k = 0; k + 1 < len; ++k) {
      const std::size_t ei = std::size_t(ledges[k]);
      const real_t sgn = lvl.edges[ei].first == line[k] ? 1.0 : -1.0;
      const real_t area = lvl.edge_area[ei];
      if (area <= 0) continue;
      const std::size_t i = std::size_t(line[k]);
      const std::size_t j = std::size_t(line[k + 1]);
      const Vec3 n_out = sgn * lvl.edge_normal(ei);
      const Vec3 nh =
          sgn * Vec3{lvl.edge_ux[ei], lvl.edge_uy[ei], lvl.edge_uz[ei]};
      // dR_i/du_j = 0.5 (A(w_j, n_out) - lambda_j I).
      const BlockMat<5> jj = euler::flux_jacobian(w[j], n_out);
      const real_t lam = euler::spectral_radius(w[j], nh) * area;
      BlockMat<6> off;
      for (int rr = 0; rr < 5; ++rr) {
        for (int cc = 0; cc < 5; ++cc) off(rr, cc) = 0.5 * jj(rr, cc);
        off(rr, rr) -= 0.5 * lam;
      }
      off(5, 5) -= 0.5 * lam;
      real_t cm = 0, cs = 0;
      const bool visc_edge = viscous && lvl.edge_geo[ei] > 0;
      if (visc_edge) {
        const real_t geo = lvl.edge_geo[ei];
        cm = (mu_lam + 0.5 * (mut[i] + mut[j])) * geo;
        cs = (mu_lam + 0.5 * (u[i][5] + u[j][5])) / kSigma * geo;
        for (int rr = 1; rr <= 4; ++rr) off(rr, rr) -= cm;
        off(5, 5) -= cs;
      }
      upper[k] = off;
      // dR_j/du_i: mirrored with w_i and the opposite normal.
      const BlockMat<5> ji = euler::flux_jacobian(w[i], -1.0 * n_out);
      const real_t lam_i = euler::spectral_radius(w[i], nh) * area;
      BlockMat<6> offl;
      for (int rr = 0; rr < 5; ++rr) {
        for (int cc = 0; cc < 5; ++cc) offl(rr, cc) = 0.5 * ji(rr, cc);
        offl(rr, rr) -= 0.5 * lam_i;
      }
      offl(5, 5) -= 0.5 * lam_i;
      if (visc_edge) {
        for (int rr = 1; rr <= 4; ++rr) offl(rr, rr) -= cm;
        offl(5, 5) -= cs;
      }
      lower[k + 1] = offl;
    }
    if (!linalg::solve_block_tridiag_status<6>(lower, dd, upper, rhs)) {
      OBS_COUNT("resil.singular_pivot", 1);
      continue;
    }
    for (std::size_t k = 0; k < len; ++k)
      apply_update(u, std::size_t(line[k]), relax, rhs[k]);
  }
}

}  // namespace columbia::nsu3d::kernels
