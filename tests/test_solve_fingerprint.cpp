// Bit-identity of whole solves.
//
// 64-bit FNV-1a fingerprints over the raw bytes of what a solve leaves
// behind: the residual-norm history, the final fine-grid state and the
// CL/CD pair, plus the serialized checkpoint of each solver. Each case is
// a small mesh and at most 20 cycles, so the suite also runs under ASan.
// Any change to an arithmetic order anywhere in a cycle — smoothing,
// restriction, forcing, prolongation, the residual norm's chunked
// reduction — moves at least one of these hashes; a refactor of the
// multigrid layers must leave every one of them unchanged.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "cart3d/solver.hpp"
#include "cartesian/cart_mesh.hpp"
#include "geom/components.hpp"
#include "mesh/builders.hpp"
#include "nsu3d/solver.hpp"
#include "resil/checkpoint.hpp"
#include "resil/faults.hpp"
#include "smp/pool.hpp"

namespace columbia {
namespace {

class Fnv1a {
 public:
  void add_bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  template <class T>
  void add(const T& v) {
    add_bytes(&v, sizeof(T));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Runs every case at two threads: the pool's chunking is part of what is
/// pinned, and the result must not depend on the count anyway.
struct ThreadsGuard {
  ThreadsGuard() { smp::set_global_threads(2); }
  ~ThreadsGuard() { smp::set_global_threads(1); }
};

struct InjectorGuard {
  explicit InjectorGuard(const std::string& spec) {
    resil::FaultInjector::global().configure(resil::parse_fault_spec(spec));
  }
  ~InjectorGuard() { resil::FaultInjector::global().reset(); }
};

struct Fingerprint {
  std::uint64_t history, state, forces;
};

template <class Solver>
Fingerprint fingerprint(const Solver& s, const std::vector<real_t>& history) {
  Fnv1a h;
  h.add(history.size());
  for (const real_t r : history) h.add(r);
  Fnv1a u;
  const auto& sol = s.solution();
  u.add(sol.size());
  for (const auto& entry : sol)
    for (const real_t x : entry) u.add(x);
  Fnv1a f;
  const auto forces = s.integrate_forces();
  f.add(forces.cl);
  f.add(forces.cd);
  return {h.value(), u.value(), f.value()};
}

void expect_fingerprint(const Fingerprint& got, const Fingerprint& want) {
  EXPECT_EQ(got.history, want.history) << "residual history";
  EXPECT_EQ(got.state, want.state) << "final fine-grid state";
  EXPECT_EQ(got.forces, want.forces) << "CL/CD";
}

template <class Solver>
std::uint64_t checkpoint_fingerprint(const Solver& s, std::uint64_t cycle,
                                     const std::vector<real_t>& history) {
  std::ostringstream os;
  resil::write_checkpoint(os, s.make_checkpoint(cycle, history));
  const std::string bytes = os.str();
  Fnv1a h;
  h.add_bytes(bytes.data(), bytes.size());
  return h.value();
}

mesh::UnstructuredMesh small_wing() {
  mesh::WingMeshSpec spec;
  spec.n_wrap = 24;
  spec.n_span = 3;
  spec.n_normal = 10;
  spec.wall_spacing = 1e-4;
  return mesh::make_wing_mesh(spec);
}

euler::FlowConditions wing_conditions() {
  euler::FlowConditions fc;
  fc.mach = 0.75;
  fc.alpha_deg = 2.0;
  fc.reynolds = 3e6;
  return fc;
}

cartesian::CartMesh sphere_mesh() {
  geom::Aabb d;
  d.expand({-1.5, -1.5, -1.5});
  d.expand({1.5, 1.5, 1.5});
  const auto sphere = geom::make_sphere({0, 0, 0}, 0.4, 16, 32);
  cartesian::CartMeshOptions opt;
  opt.base_n = 8;
  opt.max_level = 2;
  return cartesian::build_cart_mesh(sphere, d, opt);
}

bool all_finite(const std::vector<real_t>& h) {
  for (const real_t r : h)
    if (!std::isfinite(r)) return false;
  return true;
}

TEST(SolveFingerprint, Nsu3dWingFourLevelWLineImplicitViscous) {
  ThreadsGuard threads;
  nsu3d::Nsu3dOptions o;
  o.mg_levels = 4;
  o.cycle = core::CycleType::W;
  o.smoother = nsu3d::SmootherKind::LineImplicit;
  o.viscous = true;
  nsu3d::Nsu3dSolver s(small_wing(), wing_conditions(), o);
  ASSERT_EQ(s.num_levels(), 4);
  const std::vector<real_t> h = s.solve(20, 12);
  ASSERT_EQ(h.size(), 21u);
  ASSERT_TRUE(all_finite(h));
  expect_fingerprint(fingerprint(s, h),
                     {12454188849661778450ull, 7879100584046760875ull,
                      4638581346609323581ull});
}

TEST(SolveFingerprint, Nsu3dPointImplicitVCycleInviscid) {
  ThreadsGuard threads;
  nsu3d::Nsu3dOptions o;
  o.mg_levels = 3;
  o.cycle = core::CycleType::V;
  o.smoother = nsu3d::SmootherKind::PointImplicit;
  o.viscous = false;
  nsu3d::Nsu3dSolver s(small_wing(), wing_conditions(), o);
  ASSERT_EQ(s.num_levels(), 3);
  const std::vector<real_t> h = s.solve(20, 12);
  ASSERT_EQ(h.size(), 21u);
  ASSERT_TRUE(all_finite(h));
  expect_fingerprint(fingerprint(s, h),
                     {18333375353654166429ull, 17301999102627869382ull,
                      2869534953169878259ull});
}

TEST(SolveFingerprint, Cart3dSphereThreeLevelWSecondOrder) {
  ThreadsGuard threads;
  euler::FlowConditions fc;
  fc.mach = 0.5;
  fc.alpha_deg = 2.0;
  cart3d::SolverOptions o;
  o.mg_levels = 3;
  o.cycle = core::CycleType::W;
  o.second_order = true;
  cart3d::Cart3DSolver s(sphere_mesh(), fc, o);
  ASSERT_EQ(s.num_levels(), 3);
  const std::vector<real_t> h = s.solve(15, 12);
  ASSERT_EQ(h.size(), 16u);
  ASSERT_TRUE(all_finite(h));
  expect_fingerprint(fingerprint(s, h),
                     {9687543397784573161ull, 7152425773320598897ull,
                      6347661086167224605ull});
}

TEST(SolveFingerprint, Cart3dSingleGridFirstOrderVanLeer) {
  ThreadsGuard threads;
  euler::FlowConditions fc;
  fc.mach = 1.5;
  cart3d::SolverOptions o;
  o.mg_levels = 1;
  o.second_order = false;
  o.flux = euler::FluxScheme::VanLeer;
  cart3d::Cart3DSolver s(sphere_mesh(), fc, o);
  ASSERT_EQ(s.num_levels(), 1);
  const std::vector<real_t> h = s.solve(20, 12);
  ASSERT_EQ(h.size(), 21u);
  ASSERT_TRUE(all_finite(h));
  expect_fingerprint(fingerprint(s, h),
                     {6350891275601000653ull, 1403666136416414966ull,
                      1451384262175230615ull});
}

TEST(SolveFingerprint, Nsu3dGuardedSolveWithStateNaNRollbacks) {
  ThreadsGuard threads;
  InjectorGuard faults("seed=42,state_nan=0.2@2");
  nsu3d::Nsu3dOptions o;
  o.mg_levels = 3;
  nsu3d::Nsu3dSolver s(small_wing(), wing_conditions(), o);
  const resil::GuardedSolveResult gr = s.solve_guarded(20, 12);
  EXPECT_EQ(gr.outcome, resil::SolveOutcome::Recovered);
  EXPECT_EQ(gr.rollbacks, 2);
  ASSERT_TRUE(all_finite(gr.history));
  expect_fingerprint(fingerprint(s, gr.history),
                     {2716796224475404038ull, 15457923321450956580ull,
                      18428958071161059418ull});
}

TEST(SolveFingerprint, CheckpointBytesOfBothSolvers) {
  ThreadsGuard threads;
  {
    nsu3d::Nsu3dOptions o;
    o.mg_levels = 3;
    nsu3d::Nsu3dSolver s(small_wing(), wing_conditions(), o);
    const std::vector<real_t> h = s.solve(5, 12);
    EXPECT_EQ(checkpoint_fingerprint(s, 5, h), 681499083016160703ull)
        << "nsu3d";
  }
  {
    euler::FlowConditions fc;
    fc.mach = 0.5;
    cart3d::SolverOptions o;
    o.mg_levels = 2;
    cart3d::Cart3DSolver s(sphere_mesh(), fc, o);
    const std::vector<real_t> h = s.solve(5, 12);
    EXPECT_EQ(checkpoint_fingerprint(s, 5, h), 2046264504453074388ull)
        << "cart3d";
  }
}

}  // namespace
}  // namespace columbia
