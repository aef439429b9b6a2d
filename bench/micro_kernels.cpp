// Google-benchmark microbenchmarks for the hot kernels of both solvers:
// Riemann fluxes, SFC encoding, graph agglomeration and graph
// partitioning. The NSU3D smoother's block solves run only as lane kernels
// and are timed in place, as the nsu3d_point_sweep and nsu3d_line_sweep
// rows of the solver-kernel mode below.
//
// `micro_kernels --kernels-json [path]` switches to the solver-kernel
// timing mode: it sweeps the shared-memory pool over thread counts on the
// fine-level residual kernels of both solvers, compares against a replica
// of the pre-pool serial implementation, times Cartesian mesh generation
// per generated cell and NSU3D solver construction per fine node, and
// writes machine-readable JSON (default path BENCH_kernels.json). The
// solver kernels are timed on a developed flow (kDevelopCycles cycles past
// freestream): at freestream the limiter's directional differences are
// almost all below its 1e-14 threshold, so the venkat branches, and the SA
// source, cost a fraction of their real price.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cart3d/kernels.hpp"
#include "cart3d/solver.hpp"
#include "cartesian/cart_mesh.hpp"
#include "euler/flux.hpp"
#include "geom/components.hpp"
#include "graph/agglomerate.hpp"
#include "graph/partition.hpp"
#include "mesh/builders.hpp"
#include "nsu3d/kernels.hpp"
#include "nsu3d/solver.hpp"
#include "obs/json.hpp"
#include "oracles/cart3d_reference.hpp"
#include "sfc/hilbert.hpp"
#include "sfc/morton.hpp"
#include "smp/pool.hpp"
#include "support/build_info.hpp"

namespace {

using namespace columbia;

void BM_RoeFlux(benchmark::State& state) {
  const euler::Prim l{1.0, {0.5, 0.1, -0.2}, 0.8};
  const euler::Prim r{0.9, {0.4, 0.0, -0.1}, 0.7};
  const geom::Vec3 n{1, 0, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        euler::numerical_flux(l, r, n, euler::FluxScheme::Roe));
  }
}
BENCHMARK(BM_RoeFlux);

void BM_VanLeerFlux(benchmark::State& state) {
  const euler::Prim l{1.0, {0.5, 0.1, -0.2}, 0.8};
  const euler::Prim r{0.9, {0.4, 0.0, -0.1}, 0.7};
  const geom::Vec3 n{0, 1, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        euler::numerical_flux(l, r, n, euler::FluxScheme::VanLeer));
  }
}
BENCHMARK(BM_VanLeerFlux);

void BM_Hilbert3(benchmark::State& state) {
  std::uint32_t x = 12345, y = 54321, z = 9999;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sfc::hilbert3(x, y, z, 21));
    ++x;
  }
}
BENCHMARK(BM_Hilbert3);

void BM_Morton3(benchmark::State& state) {
  std::uint32_t x = 12345, y = 54321, z = 9999;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sfc::morton3(x, y, z));
    ++x;
  }
}
BENCHMARK(BM_Morton3);

graph::Csr make_grid(index_t n) {
  std::vector<std::pair<index_t, index_t>> edges;
  auto id = [&](index_t i, index_t j) { return j * n + i; };
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      if (i + 1 < n) edges.emplace_back(id(i, j), id(i + 1, j));
      if (j + 1 < n) edges.emplace_back(id(i, j), id(i, j + 1));
    }
  return graph::Csr::from_edges(n * n, edges);
}

// One agglomeration sweep with its coarse graph (the graph-level hierarchy
// step; the NSU3D levels take the fine-to-coarse map alone).
void BM_Agglomerate(benchmark::State& state) {
  const graph::Csr g = make_grid(64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::agglomerate(g));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * g.num_vertices());
}
BENCHMARK(BM_Agglomerate);

void BM_Partition16(benchmark::State& state) {
  const graph::Csr g = make_grid(64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::partition(g, 16));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * g.num_vertices());
}
BENCHMARK(BM_Partition16);

// ---------------------------------------------------------------------------
// --kernels-json mode: solver-kernel thread sweep with a seed baseline.

/// Serial replica of the residual kernel as it existed before the pool /
/// workspace work: per-call allocations, duplicated q_of lambdas, and
/// per-edge norm / normalize / pow recomputation. Kept verbatim (modulo
/// member access) so `speedup_vs_seed` measures the real delta.
void seed_residual_replica(const nsu3d::Level& lvl,
                           const std::vector<nsu3d::State>& u,
                           std::vector<nsu3d::State>& res,
                           const euler::Prim& freestream, real_t mu_lam,
                           real_t nut_inf) {
  using nsu3d::State;
  using geom::Vec3;
  constexpr real_t kSigma = 2.0 / 3.0;
  constexpr real_t kCb1 = 0.1355;
  constexpr real_t kCb2 = 0.622;
  constexpr real_t kKappa = 0.41;
  constexpr real_t kCw1 = kCb1 / (kKappa * kKappa) + (1.0 + kCb2) / kSigma;
  constexpr real_t kCw2 = 0.3;
  constexpr real_t kCw3 = 2.0;
  constexpr real_t kCv1 = 7.1;
  constexpr real_t kPrandtl = 0.72;
  constexpr real_t kPrandtlTurb = 0.9;

  const std::size_t n = std::size_t(lvl.num_nodes);
  res.assign(n, State{});
  std::vector<euler::Prim> w(n);
  std::vector<real_t> nut(n), mut(n);
  for (std::size_t i = 0; i < n; ++i) {
    const real_t inv = 1.0 / u[i][0];
    const Vec3 vel{u[i][1] * inv, u[i][2] * inv, u[i][3] * inv};
    const real_t p =
        (euler::kGamma - 1) * (u[i][4] - 0.5 * u[i][0] * dot(vel, vel));
    w[i] = {u[i][0], vel, p};
    nut[i] = u[i][5] * inv;
    const real_t nu_lam = mu_lam / w[i].rho;
    if (nut[i] <= 0) {
      mut[i] = 0;
    } else {
      const real_t chi = nut[i] / nu_lam;
      const real_t chi3 = chi * chi * chi;
      mut[i] = w[i].rho * nut[i] * chi3 / (chi3 + kCv1 * kCv1 * kCv1);
    }
  }

  auto q_of = [&](std::size_t i, int c) -> real_t {
    switch (c) {
      case 0: return w[i].rho;
      case 1: return w[i].vel.x;
      case 2: return w[i].vel.y;
      case 3: return w[i].vel.z;
      case 4: return w[i].p;
      default: return nut[i];
    }
  };

  std::vector<std::array<Vec3, 6>> grad(n);
  for (std::size_t e = 0; e < lvl.edges.size(); ++e) {
    const auto [a, b] = lvl.edges[e];
    const Vec3 nrm{lvl.edge_nx[e], lvl.edge_ny[e], lvl.edge_nz[e]};
    for (int c = 0; c < 6; ++c) {
      const real_t qf =
          0.5 * (q_of(std::size_t(a), c) + q_of(std::size_t(b), c));
      grad[std::size_t(a)][std::size_t(c)] += qf * nrm;
      grad[std::size_t(b)][std::size_t(c)] -= qf * nrm;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    Vec3 bn{};
    for (const Vec3& t : lvl.boundary_normal[i]) bn += t;
    for (int c = 0; c < 6; ++c) {
      grad[i][std::size_t(c)] += q_of(i, c) * bn;
      grad[i][std::size_t(c)] =
          grad[i][std::size_t(c)] / std::max(lvl.node_volume[i], real_t(1e-300));
    }
  }

  std::vector<std::array<real_t, 6>> qmin(n), qmax(n);
  for (std::size_t i = 0; i < n; ++i)
    for (int c = 0; c < 6; ++c)
      qmin[i][std::size_t(c)] = qmax[i][std::size_t(c)] = q_of(i, c);
  for (std::size_t e = 0; e < lvl.edges.size(); ++e) {
    const auto [a, b] = lvl.edges[e];
    for (int c = 0; c < 6; ++c) {
      const real_t qa = q_of(std::size_t(a), c), qb = q_of(std::size_t(b), c);
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
  std::vector<std::array<real_t, 6>> phi(n, {1, 1, 1, 1, 1, 1});
  auto venkat = [](real_t dplus, real_t dq, real_t eps2) {
    const real_t num = (dplus * dplus + eps2) + 2.0 * dplus * dq;
    const real_t den = dplus * dplus + 2.0 * dq * dq + dplus * dq + eps2;
    return den > 0 ? num / den : 1.0;
  };
  for (std::size_t e = 0; e < lvl.edges.size(); ++e) {
    const auto [a, b] = lvl.edges[e];
    const Vec3 dab = 0.5 * (lvl.node_center[std::size_t(b)] -
                            lvl.node_center[std::size_t(a)]);
    for (int side = 0; side < 2; ++side) {
      const std::size_t i = std::size_t(side == 0 ? a : b);
      const Vec3 d = side == 0 ? dab : -1.0 * dab;
      const real_t h = lvl.edge_length[e];
      const real_t eps2 = std::pow(0.3 * h, 3);
      for (int c = 0; c < 6; ++c) {
        const real_t dq = dot(grad[i][std::size_t(c)], d);
        real_t lim = 1.0;
        if (dq > 1e-14)
          lim = venkat(qmax[i][std::size_t(c)] - q_of(i, c), dq, eps2);
        else if (dq < -1e-14)
          lim = venkat(q_of(i, c) - qmin[i][std::size_t(c)], -dq, eps2);
        phi[i][std::size_t(c)] = std::min(phi[i][std::size_t(c)], lim);
      }
    }
  }

  auto reconstruct = [&](std::size_t i, const Vec3& d,
                         real_t& nut_out) -> euler::Prim {
    nut_out = nut[i];
    std::array<real_t, 6> q{w[i].rho, w[i].vel.x, w[i].vel.y,
                            w[i].vel.z, w[i].p, nut[i]};
    for (int c = 0; c < 6; ++c)
      q[std::size_t(c)] +=
          phi[i][std::size_t(c)] * dot(grad[i][std::size_t(c)], d);
    if (q[0] <= 0 || q[4] <= 0) return w[i];
    nut_out = q[5];
    return euler::Prim{q[0], {q[1], q[2], q[3]}, q[4]};
  };

  for (std::size_t e = 0; e < lvl.edges.size(); ++e) {
    const auto [a, b] = lvl.edges[e];
    const Vec3 nrm{lvl.edge_nx[e], lvl.edge_ny[e], lvl.edge_nz[e]};
    const real_t area = norm(nrm);
    if (area <= 0) continue;
    const Vec3 nh = nrm / area;
    const Vec3 dab = 0.5 * (lvl.node_center[std::size_t(b)] -
                            lvl.node_center[std::size_t(a)]);
    real_t nut_l, nut_r;
    const euler::Prim wl = reconstruct(std::size_t(a), dab, nut_l);
    const euler::Prim wr = reconstruct(std::size_t(b), -1.0 * dab, nut_r);
    const euler::Cons flux =
        euler::numerical_flux(wl, wr, nh, euler::FluxScheme::Roe);
    const real_t mdot = flux[0] * area;
    const real_t fnut = mdot * (mdot >= 0 ? nut_l : nut_r);
    for (int c = 0; c < 5; ++c) {
      res[std::size_t(a)][std::size_t(c)] += area * flux[std::size_t(c)];
      res[std::size_t(b)][std::size_t(c)] -= area * flux[std::size_t(c)];
    }
    res[std::size_t(a)][5] += fnut;
    res[std::size_t(b)][5] -= fnut;

    if (lvl.edge_length[e] > 0) {
      const real_t geo = area / lvl.edge_length[e];
      const real_t mu_m =
          mu_lam + 0.5 * (mut[std::size_t(a)] + mut[std::size_t(b)]);
      const real_t cm = mu_m * geo;
      const Vec3 dvel = w[std::size_t(b)].vel - w[std::size_t(a)].vel;
      res[std::size_t(a)][1] -= cm * dvel.x;
      res[std::size_t(a)][2] -= cm * dvel.y;
      res[std::size_t(a)][3] -= cm * dvel.z;
      res[std::size_t(b)][1] += cm * dvel.x;
      res[std::size_t(b)][2] += cm * dvel.y;
      res[std::size_t(b)][3] += cm * dvel.z;
      const real_t ck =
          (mu_lam / kPrandtl +
           0.5 * (mut[std::size_t(a)] + mut[std::size_t(b)]) / kPrandtlTurb) *
          euler::kGamma / (euler::kGamma - 1) * geo;
      const real_t dT = w[std::size_t(b)].p / w[std::size_t(b)].rho -
                        w[std::size_t(a)].p / w[std::size_t(a)].rho;
      const Vec3 vm = 0.5 * (w[std::size_t(a)].vel + w[std::size_t(b)].vel);
      const real_t dke = dot(vm, dvel);
      res[std::size_t(a)][4] -= ck * dT + cm * dke;
      res[std::size_t(b)][4] += ck * dT + cm * dke;
      const real_t rho_m = 0.5 * (w[std::size_t(a)].rho + w[std::size_t(b)].rho);
      const real_t nu_m = mu_lam / rho_m;
      const real_t nut_m = 0.5 * (nut[std::size_t(a)] + nut[std::size_t(b)]);
      const real_t cs =
          rho_m * (nu_m + std::max<real_t>(nut_m, 0)) / kSigma * geo;
      const real_t dnt = nut[std::size_t(b)] - nut[std::size_t(a)];
      res[std::size_t(a)][5] -= cs * dnt;
      res[std::size_t(b)][5] += cs * dnt;
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    const Vec3& fn =
        lvl.boundary_normal[i][std::size_t(mesh::BoundaryTag::Farfield)];
    const real_t fa = norm(fn);
    if (fa > 0) {
      const Vec3 nh = fn / fa;
      const euler::Cons flux =
          euler::farfield_flux(w[i], freestream, nh, euler::FluxScheme::Roe);
      for (int c = 0; c < 5; ++c)
        res[i][std::size_t(c)] += fa * flux[std::size_t(c)];
      const real_t mdot = flux[0] * fa;
      res[i][5] += mdot * (mdot >= 0 ? nut[i] : nut_inf);
    }
    for (mesh::BoundaryTag tag :
         {mesh::BoundaryTag::Wall, mesh::BoundaryTag::Symmetry}) {
      const Vec3& bn = lvl.boundary_normal[i][std::size_t(tag)];
      if (dot(bn, bn) > 0) {
        const euler::Cons flux = euler::wall_flux(w[i], bn);
        for (int c = 0; c < 5; ++c)
          res[i][std::size_t(c)] += flux[std::size_t(c)];
      }
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (lvl.is_wall_node(index_t(i))) {
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

  for (std::size_t i = 0; i < n; ++i) {
    const real_t d = std::max(lvl.wall_distance[i], real_t(1e-8));
    const real_t nu = mu_lam / w[i].rho;
    const real_t nt = std::max<real_t>(nut[i], 0);
    const Vec3 gx = grad[i][1], gy = grad[i][2], gz = grad[i][3];
    const Vec3 omega{gz.y - gy.z, gx.z - gz.x, gy.x - gx.y};
    const real_t s = norm(omega);
    const real_t chi = nt / nu;
    const real_t chi3 = chi * chi * chi;
    const real_t fv1 = chi3 / (chi3 + kCv1 * kCv1 * kCv1);
    const real_t fv2 = 1.0 - chi / (1.0 + chi * fv1);
    const real_t k2d2 = kKappa * kKappa * d * d;
    real_t stilde = s + nt / k2d2 * fv2;
    stilde = std::max(stilde, real_t(0.3) * s);
    const real_t prod = kCb1 * stilde * w[i].rho * nt;
    real_t r = stilde > 0 ? nt / (stilde * k2d2) : 10.0;
    r = std::min(r, real_t(10.0));
    const real_t g = r + kCw2 * (std::pow(r, 6) - r);
    const real_t c6 = std::pow(kCw3, 6);
    const real_t fw =
        g * std::pow((1.0 + c6) / (std::pow(g, 6) + c6), 1.0 / 6.0);
    const real_t destr = kCw1 * fw * w[i].rho * (nt / d) * (nt / d);
    res[i][5] += lvl.node_volume[i] * (destr - prod);
  }
}

/// Cycles each solver runs past freestream before its kernels are timed.
constexpr int kDevelopCycles = 5;

/// Share of the cached limiter directional differences beyond the +-1e-14
/// threshold, i.e. of the venkat branches the limiter takes.
double limiter_taken_fraction(const std::vector<real_t>& edq) {
  std::size_t taken = 0;
  for (real_t dq : edq)
    if (dq > 1e-14 || dq < -1e-14) ++taken;
  return edq.empty() ? 0.0 : double(taken) / double(edq.size());
}

/// Best-of-repetitions wall time per call, in nanoseconds.
template <class Fn>
double time_kernel_ns(Fn&& fn) {
  using clock = std::chrono::steady_clock;
  fn();  // warm caches and workspace capacity
  fn();
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    int iters = 0;
    const auto t0 = clock::now();
    do {
      fn();
      ++iters;
    } while (clock::now() - t0 < std::chrono::milliseconds(60));
    const double ns =
        double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                   clock::now() - t0)
                   .count()) /
        iters;
    best = std::min(best, ns);
  }
  return best;
}

struct KernelRow {
  std::string kernel;
  int threads = 1;
  double ns_per_edge = 0;
  double speedup_vs_serial = 1;
  double speedup_vs_seed = 0;  // 0 = no seed baseline for this kernel
};

int run_kernels_json(const std::string& path) {
  std::vector<KernelRow> rows;
  const std::vector<int> sweep{1, 2, 4};

  // --- NSU3D fine-level residual (viscous RANS, second order). ---
  {
    mesh::WingMeshSpec spec;
    spec.n_wrap = 48;
    spec.n_span = 6;
    spec.n_normal = 16;
    spec.wall_spacing = 1e-4;
    const auto m = mesh::make_wing_mesh(spec);
    euler::FlowConditions fc;
    fc.mach = 0.75;
    fc.reynolds = 3e6;
    // The default 4-level W-cycle develops the flow (about 95 % of the
    // limiter's directional differences leave the +-1e-14 band within
    // kDevelopCycles; single-grid cycles reach about 65 %); the fine level
    // is then timed alone.
    nsu3d::Nsu3dOptions o;
    smp::set_global_threads(1);
    nsu3d::Nsu3dSolver s(m, fc, o);
    for (int c = 0; c < kDevelopCycles; ++c) s.run_cycle();
    const nsu3d::Level& lvl = s.level(0);
    const double edges = double(lvl.edges.size());
    const auto sol = s.solution();
    const std::vector<nsu3d::State> u(sol.begin(), sol.end());
    std::vector<nsu3d::State> res;

    const real_t mu_lam = fc.mach / fc.reynolds;
    const real_t nut_inf = 3.0 * mu_lam / fc.freestream().rho;
    const double seed_ns = time_kernel_ns([&] {
      seed_residual_replica(lvl, u, res, fc.freestream(), mu_lam, nut_inf);
    });
    std::printf("nsu3d seed replica baseline: %.1f ns/edge\n",
                seed_ns / edges);

    double serial_ns = 0;
    for (int t : sweep) {
      smp::set_global_threads(t);
      const double ns =
          time_kernel_ns([&] { s.compute_residual(0, u, res, true); });
      if (t == 1) serial_ns = ns;
      rows.push_back({"nsu3d_residual_fine", t, ns / edges, serial_ns / ns,
                      seed_ns / ns});
      std::printf("nsu3d_residual_fine t=%d: %.1f ns/edge (%.2fx serial, "
                  "%.2fx seed)\n",
                  t, ns / edges, serial_ns / ns, seed_ns / ns);
    }
    smp::set_global_threads(1);

    // Per-kernel phase breakdown (serial): the residual phases measured
    // through their public kernels, plus the two smoother sweeps. Phase
    // rows carry no seed baseline; the gate compares their ns_per_edge
    // against the committed baseline like any other row.
    {
      namespace K = nsu3d::kernels;
      K::Physics phys;
      phys.freestream = fc.freestream();
      phys.flux = o.flux;
      phys.mu_lam = mu_lam;
      phys.nut_inf = nut_inf;
      phys.viscous = true;
      K::Scratch ws;
      ws.resize(lvl);
      auto phase = [&](const char* name, auto&& fn) {
        const double ns = time_kernel_ns(fn);
        rows.push_back({name, 1, ns / edges, 1, 0});
        std::printf("%s t=1: %.1f ns/edge\n", name, ns / edges);
      };
      phase("nsu3d_prim_cache", [&] { K::prim_cache(lvl, phys, u, ws); });
      phase("nsu3d_gradients", [&] { K::gradients(lvl, ws, true); });
      phase("nsu3d_limiter", [&] { K::limiter(lvl, ws); });
      std::printf("nsu3d_limiter taken-branch fraction: %.3f\n",
                  limiter_taken_fraction(ws.edq));
      phase("nsu3d_flux", [&] { K::flux_residual(lvl, phys, ws, true, res); });
      phase("nsu3d_sa_source", [&] { K::sa_source(lvl, phys, ws, res); });
      // Smoother: time the block assembly (which leaves ws.diag assembled),
      // then the update kernels on a working copy of the state (each call
      // is a valid implicit sweep).
      K::wave_speeds(lvl, phys, ws);
      phase("nsu3d_assemble_diag",
            [&] { K::assemble_diag(lvl, phys, o.cfl, u, ws); });
      const std::vector<nsu3d::State> forcing(u.size(), nsu3d::State{});
      std::vector<nsu3d::State> uu(u.begin(), u.end());
      phase("nsu3d_point_sweep",
            [&] { K::point_sweep(lvl, 0.8, forcing, res, ws, uu); });
      uu.assign(u.begin(), u.end());
      phase("nsu3d_line_sweep",
            [&] { K::line_sweep(lvl, phys, 0.8, forcing, res, ws, uu); });
    }
  }

  // --- Cart3D fine-level residual (second-order Euler, cut cells). ---
  {
    geom::Aabb domain;
    domain.expand({-1.5, -1.5, -1.5});
    domain.expand({1.5, 1.5, 1.5});
    const auto sphere = geom::make_sphere({0, 0, 0}, 0.4, 24, 48);
    cartesian::CartMeshOptions mo;
    mo.base_n = 16;
    mo.max_level = 2;
    const auto m = cartesian::build_cart_mesh(sphere, domain, mo);
    euler::FlowConditions fc;
    fc.mach = 0.3;
    cart3d::SolverOptions o;
    o.mg_levels = 1;
    smp::set_global_threads(1);
    cart3d::Cart3DSolver s(m, fc, o);
    for (int c = 0; c < kDevelopCycles; ++c) s.run_cycle();
    const double faces = double(s.mesh(0).faces.size());
    std::vector<euler::Cons> u(s.solution());
    std::vector<euler::Cons> res;

    // Seed replica: the retained scalar reference is a verbatim copy of
    // the pre-SoA residual (geometry recomputed per call).
    cart3d::kernels::ReferenceScratch ref;
    const double seed_ns = time_kernel_ns([&] {
      cart3d::kernels::residual_reference(s.mesh(0), fc.freestream(), o.flux,
                                          u, true, ref, res);
    });
    std::printf("cart3d seed replica baseline: %.1f ns/face\n",
                seed_ns / faces);

    double serial_ns = 0;
    for (int t : sweep) {
      smp::set_global_threads(t);
      const double ns =
          time_kernel_ns([&] { s.compute_residual(0, u, res, true); });
      if (t == 1) serial_ns = ns;
      rows.push_back({"cart3d_residual_fine", t, ns / faces, serial_ns / ns,
                      seed_ns / ns});
      std::printf("cart3d_residual_fine t=%d: %.1f ns/face (%.2fx serial, "
                  "%.2fx seed)\n",
                  t, ns / faces, serial_ns / ns, seed_ns / ns);
    }
    smp::set_global_threads(1);
  }

  // --- Cartesian mesh generation (cut-cell classification). ---
  // The SSLV mesh of the cart3d-sslv workload (base_n 24, max_level 2) at
  // two surface resolutions: the per-cell cost should barely grow with the
  // triangle count.
  for (int resolution : {1, 4}) {
    const geom::TriSurface sslv = geom::make_sslv(0.0, resolution);
    geom::Aabb domain = sslv.bounds();
    const geom::Vec3 pad = domain.hi - domain.lo;
    domain.lo -= pad;
    domain.hi += pad;
    cartesian::CartMeshOptions mo;
    mo.base_n = 24;
    mo.max_level = 2;
    index_t cells = 0;
    const double ns = time_kernel_ns([&] {
      cells = cartesian::build_cart_mesh(sslv, domain, mo).num_cells();
    });
    const std::string name =
        "cartesian_mesh_sslv_r" + std::to_string(resolution);
    rows.push_back({name, 1, ns / double(cells), 1, 0});
    std::printf("%s t=1: %.1f ns/cell (%d triangles, %d cells, %.1f M "
                "cells/min)\n",
                name.c_str(), ns / double(cells), int(sslv.num_triangles()),
                int(cells), double(cells) / ns * 60e9 / 1e6);
  }

  // --- NSU3D set-up: dual metrics, lines, agglomerated levels, coloring. ---
  // Nsu3dSolver construction from the nsu3d-wing mesh of columbia_bench
  // (64x12x24, 4-level W, line-implicit), per fine node: the constructor
  // runs pooled passes, so the row is timed at 1 and 4 threads.
  {
    mesh::WingMeshSpec spec;
    spec.n_wrap = 64;
    spec.n_span = 12;
    spec.n_normal = 24;
    spec.wall_spacing = 1e-4;
    const auto m = mesh::make_wing_mesh(spec);
    euler::FlowConditions fc;
    fc.mach = 0.75;
    fc.reynolds = 3e6;
    nsu3d::Nsu3dOptions o;
    o.mg_levels = 4;
    o.cycle = nsu3d::CycleType::W;
    o.smoother = nsu3d::SmootherKind::LineImplicit;
    const double nodes = double(m.num_points());
    double serial_ns = 0;
    for (int t : {1, 4}) {
      smp::set_global_threads(t);
      const double ns =
          time_kernel_ns([&] { const nsu3d::Nsu3dSolver s(m, fc, o); });
      if (t == 1) serial_ns = ns;
      rows.push_back({"nsu3d_setup_wing", t, ns / nodes, serial_ns / ns, 0});
      std::printf("nsu3d_setup_wing t=%d: %.1f ns/node (%.2f ms, %.2fx "
                  "serial)\n",
                  t, ns / nodes, ns * 1e-6, serial_ns / ns);
    }
    smp::set_global_threads(1);
  }

  // Same schema as before (bench/hardware_threads/note/kernels), emitted
  // through the shared obs JSON writer the harness --json reports use.
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  obs::JsonWriter w(f);
  w.begin_object();
  w.kv("bench", "micro_kernels");
  const BuildInfo& bi = build_info();
  w.key("provenance");
  w.begin_object();
  w.kv("git_sha", bi.git_sha);
  w.kv("build_type", bi.build_type);
  w.kv("columbia_threads", std::int64_t(smp::env_threads()));
  w.kv("hardware_threads", std::int64_t(hardware_threads()));
  w.end_object();
  w.kv("hardware_threads",
       std::uint64_t(std::thread::hardware_concurrency()));
  w.kv("note",
       "ns_per_edge is wall time per edge (NSU3D), per face (Cart3D), "
       "per generated cell (cartesian_mesh_*: build_cart_mesh on the SSLV "
       "at surface resolution 1 or 4, base_n 24, max_level 2) or per fine "
       "node (nsu3d_setup_wing: Nsu3dSolver construction from the "
       "64x12x24 nsu3d-wing mesh, 4 levels, at 1 and 4 threads); the solver "
       "kernels are timed on the flow after 5 cycles from freestream; "
       "speedup_vs_seed compares against a replica of the pre-workspace "
       "serial kernel; speedup_vs_seed 0 means no seed baseline; "
       "nsu3d_* phase rows time the public SoA phase kernels serially; "
       "thread-sweep speedups are bounded by hardware_threads");
  w.key("kernels");
  w.begin_array();
  for (const KernelRow& r : rows) {
    w.begin_object();
    w.kv("kernel", r.kernel);
    w.kv("threads", r.threads);
    w.kv("ns_per_edge", r.ns_per_edge);
    w.kv("speedup_vs_serial", r.speedup_vs_serial);
    w.kv("speedup_vs_seed", r.speedup_vs_seed);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  f << "\n";
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--kernels-json") {
      const std::string path =
          i + 1 < argc ? argv[i + 1] : "BENCH_kernels.json";
      return run_kernels_json(path);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
