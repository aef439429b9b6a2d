// Analytic Euler flux Jacobian dF/dU: the scalar oracle of NSU3D's
// lane_flux_jacobian (nsu3d/kernels.cpp).
//
// The point- and line-implicit smoothers of NSU3D assemble implicit blocks
// per grid point (paper Sec. III): the 5x5 mean-flow block comes from this
// Jacobian, the SA diagonal from the turbulence linearization. Production
// evaluates it four nodes or lines at a time, lane by lane with these
// expressions in this order; the tests check this form against finite
// differences and the lane form against the coupled smoother built on it.
#pragma once

#include "euler/state.hpp"
#include "linalg/block.hpp"

namespace columbia::euler {

/// dF(U, n)/dU for the unit normal n. Standard closed form for a perfect
/// gas (see e.g. Hirsch vol. 2); conservative variables ordering
/// [rho, rho u, rho v, rho w, rho E].
inline linalg::BlockMat<5> flux_jacobian(const Prim& w, const geom::Vec3& n) {
  const real_t g = kGamma;
  const real_t u = w.vel.x, v = w.vel.y, wz = w.vel.z;
  const real_t q2 = u * u + v * v + wz * wz;
  const real_t un = dot(w.vel, n);
  const real_t h = g / (g - 1) * w.p / w.rho + 0.5 * q2;  // total enthalpy
  const real_t gm1 = g - 1;

  linalg::BlockMat<5> a;
  // Row 0: continuity.
  a(0, 0) = 0;
  a(0, 1) = n.x;
  a(0, 2) = n.y;
  a(0, 3) = n.z;
  a(0, 4) = 0;
  // Rows 1-3: momentum.
  const real_t vel[3] = {u, v, wz};
  const real_t nn[3] = {n.x, n.y, n.z};
  for (int i = 0; i < 3; ++i) {
    a(1 + i, 0) = 0.5 * gm1 * q2 * nn[i] - vel[i] * un;
    for (int j = 0; j < 3; ++j)
      a(1 + i, 1 + j) = vel[i] * nn[j] - gm1 * vel[j] * nn[i] +
                        (i == j ? un : 0.0);
    a(1 + i, 4) = gm1 * nn[i];
  }
  // Row 4: energy.
  a(4, 0) = (0.5 * gm1 * q2 - h) * un;
  for (int j = 0; j < 3; ++j)
    a(4, 1 + j) = h * nn[j] - gm1 * vel[j] * un;
  a(4, 4) = g * un;
  return a;
}

}  // namespace columbia::euler
