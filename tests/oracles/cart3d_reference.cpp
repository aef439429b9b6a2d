#include "oracles/cart3d_reference.hpp"

#include <algorithm>
#include <cmath>

namespace columbia::cart3d::kernels {

using cartesian::CartCell;
using cartesian::CartFace;
using cartesian::CartMesh;
using geom::Vec3;

namespace {

std::array<real_t, 5> prim_array(const Prim& w) {
  return {w.rho, w.vel.x, w.vel.y, w.vel.z, w.p};
}

Prim prim_from_array(const std::array<real_t, 5>& q) {
  return {q[0], {q[1], q[2], q[3]}, q[4]};
}

real_t venkat(real_t dplus, real_t dq, real_t eps2) {
  const real_t num = (dplus * dplus + eps2) + 2.0 * dplus * dq;
  const real_t den = dplus * dplus + 2.0 * dq * dq + dplus * dq + eps2;
  return den > 0 ? num / den : 1.0;
}

}  // namespace

void residual_reference(const CartMesh& m, const Prim& freestream,
                        euler::FluxScheme scheme, std::span<const Cons> u,
                        bool second_order, ReferenceScratch& ws,
                        std::vector<Cons>& res) {
  const std::size_t n = m.cells.size();
  res.assign(n, Cons{});

  ws.w.resize(n);
  auto& w = ws.w;
  for (std::size_t i = 0; i < n; ++i) w[i] = euler::to_primitive(u[i]);

  auto& grad = ws.grad;
  auto& phi = ws.phi;
  if (second_order) {
    grad.assign(n, {});
    phi.assign(n, {1, 1, 1, 1, 1});

    ws.gram.assign(n, std::array<real_t, 6>{0, 0, 0, 0, 0, 0});
    ws.rhs.assign(n, std::array<Vec3, 5>{});
    auto& gram = ws.gram;
    auto& rhs = ws.rhs;
    auto accumulate = [&](index_t a, index_t b) {
      const Vec3 d = m.cell_center(m.cells[std::size_t(b)]) -
                     m.cell_center(m.cells[std::size_t(a)]);
      auto& g = gram[std::size_t(a)];
      g[0] += d.x * d.x;
      g[1] += d.x * d.y;
      g[2] += d.x * d.z;
      g[3] += d.y * d.y;
      g[4] += d.y * d.z;
      g[5] += d.z * d.z;
      const auto qa = prim_array(w[std::size_t(a)]);
      const auto qb = prim_array(w[std::size_t(b)]);
      for (int c = 0; c < 5; ++c)
        rhs[std::size_t(a)][std::size_t(c)] +=
            (qb[std::size_t(c)] - qa[std::size_t(c)]) * d;
    };
    for (const CartFace& f : m.faces) {
      accumulate(f.left, f.right);
      accumulate(f.right, f.left);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto& g = gram[i];
      const real_t a = g[0], b = g[1], c = g[2], d = g[3], e = g[4],
                   f3 = g[5];
      const real_t det = a * (d * f3 - e * e) - b * (b * f3 - e * c) +
                         c * (b * e - d * c);
      if (std::abs(det) < 1e-30) continue;  // isolated cell: keep zero grad
      const real_t inv = 1.0 / det;
      const real_t i00 = (d * f3 - e * e) * inv;
      const real_t i01 = (c * e - b * f3) * inv;
      const real_t i02 = (b * e - c * d) * inv;
      const real_t i11 = (a * f3 - c * c) * inv;
      const real_t i12 = (b * c - a * e) * inv;
      const real_t i22 = (a * d - b * b) * inv;
      for (int q = 0; q < 5; ++q) {
        const Vec3 rv = rhs[i][std::size_t(q)];
        grad[i][std::size_t(q)] = {i00 * rv.x + i01 * rv.y + i02 * rv.z,
                                   i01 * rv.x + i11 * rv.y + i12 * rv.z,
                                   i02 * rv.x + i12 * rv.y + i22 * rv.z};
      }
    }

    ws.qmin.resize(n);
    ws.qmax.resize(n);
    auto& qmin = ws.qmin;
    auto& qmax = ws.qmax;
    for (std::size_t i = 0; i < n; ++i) qmin[i] = qmax[i] = prim_array(w[i]);
    auto minmax = [&](index_t a, index_t b) {
      const auto qb = prim_array(w[std::size_t(b)]);
      for (int c = 0; c < 5; ++c) {
        qmin[std::size_t(a)][std::size_t(c)] =
            std::min(qmin[std::size_t(a)][std::size_t(c)], qb[std::size_t(c)]);
        qmax[std::size_t(a)][std::size_t(c)] =
            std::max(qmax[std::size_t(a)][std::size_t(c)], qb[std::size_t(c)]);
      }
    };
    for (const CartFace& f : m.faces) {
      minmax(f.left, f.right);
      minmax(f.right, f.left);
    }
    auto limit_at = [&](index_t i, const Vec3& to_face) {
      const auto qi = prim_array(w[std::size_t(i)]);
      const real_t h = m.cell_width(m.cells[std::size_t(i)].level, 0);
      const real_t eps2 = std::pow(0.3 * h, 3);
      for (int c = 0; c < 5; ++c) {
        const real_t dq = dot(grad[std::size_t(i)][std::size_t(c)], to_face);
        real_t lim = 1.0;
        if (dq > 1e-14)
          lim = venkat(qmax[std::size_t(i)][std::size_t(c)] - qi[std::size_t(c)],
                       dq, eps2);
        else if (dq < -1e-14)
          lim = venkat(qi[std::size_t(c)] - qmin[std::size_t(i)][std::size_t(c)],
                       -dq, eps2);
        phi[std::size_t(i)][std::size_t(c)] =
            std::min(phi[std::size_t(i)][std::size_t(c)], lim);
      }
    };
    for (const CartFace& f : m.faces) {
      limit_at(f.left, f.center - m.cell_center(m.cells[std::size_t(f.left)]));
      limit_at(f.right,
               f.center - m.cell_center(m.cells[std::size_t(f.right)]));
    }
  }

  auto reconstruct = [&](index_t i, const Vec3& face_center) -> Prim {
    if (!second_order) return w[std::size_t(i)];
    const Vec3 d = face_center - m.cell_center(m.cells[std::size_t(i)]);
    auto q = prim_array(w[std::size_t(i)]);
    for (int c = 0; c < 5; ++c)
      q[std::size_t(c)] += phi[std::size_t(i)][std::size_t(c)] *
                           dot(grad[std::size_t(i)][std::size_t(c)], d);
    if (q[0] <= 0 || q[4] <= 0) return w[std::size_t(i)];
    return prim_from_array(q);
  };

  for (const CartFace& f : m.faces) {
    const Vec3 nrm = axis_normal(f.axis);
    const Prim wl = reconstruct(f.left, f.center);
    const Prim wr = reconstruct(f.right, f.center);
    const Cons flux = euler::numerical_flux(wl, wr, nrm, scheme);
    for (int c = 0; c < 5; ++c) {
      res[std::size_t(f.left)][std::size_t(c)] += f.area * flux[std::size_t(c)];
      res[std::size_t(f.right)][std::size_t(c)] -= f.area * flux[std::size_t(c)];
    }
  }

  for (const CartFace& f : m.boundary_faces) {
    const Vec3 nrm = boundary_normal(f);
    const Cons flux =
        euler::farfield_flux(w[std::size_t(f.left)], freestream, nrm, scheme);
    for (int c = 0; c < 5; ++c)
      res[std::size_t(f.left)][std::size_t(c)] += f.area * flux[std::size_t(c)];
  }

  for (std::size_t i = 0; i < n; ++i) {
    const CartCell& c = m.cells[i];
    if (!c.cut) continue;
    const Cons flux = euler::wall_flux(w[i], c.wall_area);
    for (int q = 0; q < 5; ++q) res[i][std::size_t(q)] += flux[std::size_t(q)];
  }
}

}  // namespace columbia::cart3d::kernels
