// The four workloads. Each is a closed loop: one solve (or one database
// fill, or one process-group solve) after another from this process, the
// next starting only when the previous one finished, for the measured
// window of Config::seconds. Everything is driven through the solvers'
// public APIs; the only timing hooks are the read-only multigrid level
// hooks, installed in the traced run alone.
#include <sys/mman.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "cart3d/solver.hpp"
#include "core/exchange_plan.hpp"
#include "core/multigrid.hpp"
#include "driver/database.hpp"
#include "geom/components.hpp"
#include "layers.hpp"
#include "mesh/builders.hpp"
#include "nsu3d/kernels.hpp"
#include "nsu3d/partitioned.hpp"
#include "nsu3d/solver.hpp"
#include "smp/pool.hpp"
#include "smp/process_group.hpp"
#include "support/random.hpp"

namespace columbia::cbench {

double alpha_offset_deg(std::uint64_t seed) {
  if (seed == 1) return 0;
  Xoshiro256 rng(seed);
  return rng.uniform(-0.1, 0.1);
}

namespace {

/// Set-ups timed before the measured loop, on top of the one every repeat
/// pays, so setup_s is a median of several samples even when few repeats
/// fit in the window.
constexpr int kSetupReps = 9;
constexpr int kMaxReps = 500;
/// Cycles of the speedup probe (paper-style per-cycle rate at 1 vs 4
/// threads over the start of a solve).
constexpr int kSpeedupCycles = 10;
constexpr int kProbeThreads = 4;

void add(std::vector<Metric>& m, const std::string& name, double value,
         const char* unit) {
  m.push_back({name, value, unit});
}

/// Records one attempted solve or case.
void tally(Result& r, const std::string& problem) {
  r.attempted += 1;
  if (problem.empty()) return;
  r.failed += 1;
  if (r.errors.size() < 16) r.errors.push_back(problem);
}

bool bitwise_equal(const std::vector<Output>& a, const std::vector<Output>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].name != b[i].name || std::memcmp(&a[i].value, &b[i].value,
                                              sizeof(double)) != 0)
      return false;
  return true;
}

bool all_finite(const std::vector<Output>& outs) {
  for (const Output& o : outs)
    if (!std::isfinite(o.value)) return false;
  return true;
}

/// Closed loop: runs one(k) back to back, starting repeat k only while it
/// is expected to end inside the window (the previous repeat's duration
/// is the estimate), and always at least `min_reps` times.
template <class Fn>
void closed_loop(double seconds, int min_reps, Fn&& one) {
  const double start = now_s();
  double last = 0;
  for (int k = 0; k < kMaxReps; ++k) {
    if (k >= min_reps && now_s() - start + last > seconds) break;
    const double t0 = now_s();
    one(k);
    last = now_s() - t0;
  }
}

// --- The bench loop -----------------------------------------------------------

struct SolveRun {
  std::vector<real_t> history;
  std::vector<double> cycle_s;
  double wall_s = 0;
};

/// solve()'s termination rule — initial residual_norm(), then run_cycle()
/// until the norm drops `orders` orders or max_cycles elapse — with every
/// cycle timed. bench_smoke pins the history to solve() bit for bit.
template <class Solver>
SolveRun bench_solve(Solver& s, int max_cycles, real_t orders,
                     MgTimeline* tl) {
  SolveRun r;
  const double t0 = now_s();
  r.history.push_back(s.residual_norm());
  const real_t target = r.history[0] * std::pow(10.0, -orders);
  for (int c = 0; c < max_cycles; ++c) {
    const double c0 = now_s();
    if (tl) tl->cycle_begin();
    r.history.push_back(s.run_cycle());
    if (tl) tl->cycle_end();
    r.cycle_s.push_back(now_s() - c0);
    if (r.history.back() <= target) break;
  }
  r.wall_s = now_s() - t0;
  return r;
}

double orders_dropped(const std::vector<real_t>& h) {
  return -std::log10(double(h.back()) / double(h.front()));
}

template <class Solver>
void attach_timeline(Solver& s, MgTimeline& tl) {
  s.set_level_hooks(
      [&tl](int l) {
        const double t = now_s();
        tl.hook_begin(l, t, t);
      },
      [&tl](int l) {
        const double t = now_s();
        tl.hook_end(l, t, t);
      });
}

/// Multigrid layer rows from a timeline summed over `cycle_s.size()`
/// cycles; `solve_wall` is the summed wall time of the traced solves.
void add_mg_metrics(Result& r, const MgTotals& t,
                    const std::vector<double>& cycle_s,
                    const std::vector<double>& first_cycle_s,
                    double solve_wall) {
  const double n = std::max(t.cycles, 1);
  double coarse = 0, visits = 0;
  for (int l = 0; l < t.levels; ++l) {
    const std::string L = ".L" + std::to_string(l);
    add(r.layers, "core.mg.presmooth_s" + L, t.presmooth[l] / n, "s");
    if (l + 1 < t.levels)
      add(r.layers, "core.mg.restrict_s" + L, t.restrict_[l] / n, "s");
    add(r.layers, "core.mg.visits" + L, double(t.visits[l]) / n, "count");
    visits += double(t.visits[l]) / n;
    coarse += t.restrict_[l];
    if (l > 0) coarse += t.presmooth[l] + t.post[l] + t.finish[l];
  }
  const double unattributed = 1.0 - t.attributed() / solve_wall;
  add(r.layers, "core.mg.return_s", t.ret / n, "s");
  add(r.layers, "core.mg.driver_s", t.driver / n, "s");
  add(r.layers, "core.mg.cycle_s.p50", median(cycle_s), "s");
  add(r.layers, "core.mg.cycle_s.p90", percentile(cycle_s, 90), "s");
  add(r.layers, "core.mg.first_cycle_s", median(first_cycle_s), "s");
  add(r.layers, "core.mg.unattributed_frac", unattributed, "frac");
  add(r.layers, "core.mg.cycles", t.cycles, "count");

  add(r.summary, "mg.presmooth_s.L0", t.presmooth[0] / n, "s");
  add(r.summary, "mg.coarse_frac", coarse / t.cycles_wall, "frac");
  add(r.summary, "mg.return_s", t.ret / n, "s");
  add(r.summary, "mg.cycle_s.p50", median(cycle_s), "s");
  add(r.summary, "mg.cycle_s.p90", percentile(cycle_s, 90), "s");
  add(r.summary, "mg.first_cycle_s", median(first_cycle_s), "s");
  add(r.summary, "mg.unattributed_frac", unattributed, "frac");
  add(r.summary, "mg.visits_per_cycle", visits, "count");
}

/// Summary rows every workload reports; single-process workloads have no
/// wire traffic.
void add_xchg_summary(Result& r, double messages_per_cycle,
                      double finish_frac) {
  add(r.summary, "xchg.messages_per_cycle", messages_per_cycle, "count");
  add(r.summary, "xchg.finish_frac", finish_frac, "frac");
}

void add_overhead(Result& r, double traced_tts, double untraced_tts) {
  const double f = traced_tts / untraced_tts - 1.0;
  add(r.layers, "obs.trace_overhead_frac", f, "frac");
  add(r.summary, "obs.trace_overhead_frac", f, "frac");
}

// --- Kernel probes --------------------------------------------------------------

// Bytes one residual call reads or writes, each array counted once
// ("computed from array sizes": no cache misses, no write-allocate).
// NSU3D per edge: endpoints (2 index), normal/unit/half-offset (9 real),
// viscous metric + eps^2 (2 real), limiter differences (12 real); per node:
// state + residual (12), prim/gradient/phi blocks (48), 1/volume, volume,
// wall distance (3), boundary normals (9).
constexpr double kNsu3dBytesPerEdge = 2 * 4 + 23 * 8;
constexpr double kNsu3dBytesPerNode = 72 * 8;
// Cart3D per face: endpoints (2 index), axis (1 byte), area + offsets
// (10 real) and limiter differences (10 real) for second order; endpoints,
// axis and area for first order. Per cell: state + residual (10 real),
// prim block (8), and for second order gradient/rhs/phi/Gram blocks (64)
// plus eps^2.
constexpr double kCartBytesPerFace2 = 2 * 4 + 1 + 20 * 8;
constexpr double kCartBytesPerCell2 = 83 * 8;
constexpr double kCartBytesPerFace1 = 2 * 4 + 1 + 8;
constexpr double kCartBytesPerCell1 = 18 * 8;

struct ProbeWindow {
  int reps;
  double window_s;
};
ProbeWindow probe_window(bool smoke) {
  return smoke ? ProbeWindow{2, 0.002} : ProbeWindow{5, 0.06};
}

/// The summary's kernel rows: the workload's fine-level residual per edge
/// (NSU3D) or face (Cart3D).
void add_kernel_summary(Result& r, double ns_t1, double ns_t4, double gbs_t4) {
  add(r.summary, "kernel.residual_ns_per_item.t1", ns_t1, "ns");
  add(r.summary, "kernel.residual_ns_per_item.t4", ns_t4, "ns");
  add(r.summary, "kernel.residual_speedup.t4", ns_t1 / ns_t4, "x");
  add(r.summary, "kernel.residual_gbs_computed.t4", gbs_t4, "GB/s");
}

/// Times `fn` at 1 and 4 pool threads; returns {ns_t1, ns_t4} per call.
template <class Fn>
std::pair<double, double> time_t1_t4(Fn&& fn, ProbeWindow w) {
  smp::set_global_threads(1);
  const double t1 = time_kernel_ns(fn, w.reps, w.window_s);
  smp::set_global_threads(kProbeThreads);
  const double t4 = time_kernel_ns(fn, w.reps, w.window_s);
  return {t1, t4};
}

void nsu3d_kernel_probes(nsu3d::Nsu3dSolver& s,
                         const euler::FlowConditions& fc,
                         const nsu3d::Nsu3dOptions& o, Result& r,
                         bool smoke) {
  namespace K = nsu3d::kernels;
  const ProbeWindow w = probe_window(smoke);
  const nsu3d::Level& lvl = s.level(0);
  const double edges = double(lvl.edges.size());
  const std::vector<nsu3d::State> u(s.solution().begin(), s.solution().end());
  std::vector<nsu3d::State> res;
  const auto [t1, t4] =
      time_t1_t4([&] { s.compute_residual(0, u, res, true); }, w);
  const double bytes =
      edges * kNsu3dBytesPerEdge + double(lvl.num_nodes) * kNsu3dBytesPerNode;
  add(r.layers, "nsu3d.residual_ns_per_edge.t1", t1 / edges, "ns");
  add(r.layers, "nsu3d.residual_ns_per_edge.t4", t4 / edges, "ns");
  add(r.layers, "nsu3d.residual_speedup.t4", t1 / t4, "x");
  add(r.layers, "nsu3d.residual_gbs_computed.t4", bytes / t4, "GB/s");
  add_kernel_summary(r, t1 / edges, t4 / edges, bytes / t4);

  // Phase kernels, as micro_kernels drives them.
  K::Physics phys;
  phys.freestream = fc.freestream();
  phys.flux = o.flux;
  phys.mu_lam = fc.mach / fc.reynolds;
  phys.nut_inf = 3.0 * phys.mu_lam / phys.freestream.rho;
  phys.viscous = o.viscous;
  K::Scratch ws;
  ws.resize(lvl);
  K::prim_cache(lvl, phys, u, ws);
  K::gradients(lvl, ws, true);
  K::limiter(lvl, ws);
  K::wave_speeds(lvl, phys, ws);
  K::assemble_diag(lvl, phys, o.cfl, u, ws);
  const std::vector<nsu3d::State> forcing(u.size(), nsu3d::State{});
  std::vector<nsu3d::State> uu(u.begin(), u.end());
  auto phase = [&](const char* name, auto&& fn) {
    const auto [p1, p4] = time_t1_t4(fn, w);
    add(r.layers, std::string("nsu3d.") + name + "_ns_per_edge.t1", p1 / edges,
        "ns");
    add(r.layers, std::string("nsu3d.") + name + "_ns_per_edge.t4", p4 / edges,
        "ns");
  };
  phase("prim_cache", [&] { K::prim_cache(lvl, phys, u, ws); });
  phase("gradients", [&] { K::gradients(lvl, ws, true); });
  phase("limiter", [&] { K::limiter(lvl, ws); });
  phase("flux", [&] { K::flux_residual(lvl, phys, ws, true, res); });
  phase("sa_source", [&] { K::sa_source(lvl, phys, ws, res); });
  phase("point_sweep",
        [&] { K::point_sweep(lvl, 0.8, forcing, res, ws, uu); });
  uu.assign(u.begin(), u.end());
  phase("line_sweep",
        [&] { K::line_sweep(lvl, phys, 0.8, forcing, res, ws, uu); });
}

/// Cart3D residual rows at both orders; the summary takes the order the
/// workload solves with.
void cart3d_kernel_probes(cart3d::Cart3DSolver& s, bool second_order,
                          Result& r, bool smoke) {
  const ProbeWindow w = probe_window(smoke);
  const double faces = double(s.mesh(0).faces.size());
  const double cells = double(s.mesh(0).num_cells());
  const std::vector<euler::Cons> u(s.solution());
  std::vector<euler::Cons> res;
  const auto [s1, s4] =
      time_t1_t4([&] { s.compute_residual(0, u, res, true); }, w);
  const auto [f1, f4] =
      time_t1_t4([&] { s.compute_residual(0, u, res, false); }, w);
  const double bytes2 = faces * kCartBytesPerFace2 + cells * kCartBytesPerCell2;
  const double bytes1 = faces * kCartBytesPerFace1 + cells * kCartBytesPerCell1;
  add(r.layers, "cart3d.residual_ns_per_face.t1", s1 / faces, "ns");
  add(r.layers, "cart3d.residual_ns_per_face.t4", s4 / faces, "ns");
  add(r.layers, "cart3d.residual_fo_ns_per_face.t1", f1 / faces, "ns");
  add(r.layers, "cart3d.residual_fo_ns_per_face.t4", f4 / faces, "ns");
  add(r.layers, "cart3d.residual_speedup.t4", s1 / s4, "x");
  add(r.layers, "cart3d.residual_fo_speedup.t4", f1 / f4, "x");
  add(r.layers, "cart3d.residual_gbs_computed.t4", bytes2 / s4, "GB/s");
  add(r.layers, "cart3d.residual_fo_gbs_computed.t4", bytes1 / f4, "GB/s");
  if (second_order)
    add_kernel_summary(r, s1 / faces, s4 / faces, bytes2 / s4);
  else
    add_kernel_summary(r, f1 / faces, f4 / faces, bytes1 / f4);
}

// --- Single-solver workloads (nsu3d-wing, cart3d-sslv) ----------------------------

template <class Solver>
struct Built {
  std::unique_ptr<Solver> solver;
  double mesh_s = 0, ctor_s = 0;
};

template <class Solver>
struct SolveCase {
  std::function<Built<Solver>()> build;  // mesh + solver, both timed
  int threads = 4;
  int max_cycles = 0;
  real_t orders = 3;
  bool fixed_budget = false;  // always run max_cycles (no target)
};

template <class Solver>
std::vector<Output> solve_outputs(const SolveRun& run, const Solver& s) {
  const auto f = s.integrate_forces();
  return {{"cycles", double(run.history.size() - 1), true},
          {"final_residual", double(run.history.back()), false},
          {"orders_dropped", orders_dropped(run.history), false},
          {"cl", double(f.cl), false},
          {"cd", double(f.cd), false}};
}

template <class Solver>
std::string check_solve(const SolveRun& run, const SolveCase<Solver>& c,
                        const std::vector<Output>& outs) {
  for (const real_t h : run.history)
    if (!std::isfinite(h)) return "non-finite residual history";
  if (!all_finite(outs)) return "non-finite forces";
  const int cycles = int(run.history.size()) - 1;
  if (c.fixed_budget && cycles != c.max_cycles) return "stopped before budget";
  if (!c.fixed_budget && orders_dropped(run.history) < c.orders)
    return "did not drop " + std::to_string(int(c.orders)) + " orders in " +
           std::to_string(cycles) + " cycles";
  return {};
}

/// Mean per-cycle time of the first kSpeedupCycles cycles at `threads`.
template <class Solver>
double early_cycle_s(const SolveCase<Solver>& c, int threads) {
  smp::set_global_threads(threads);
  Built<Solver> b = c.build();
  b.solver->residual_norm();
  const double t0 = now_s();
  for (int i = 0; i < kSpeedupCycles; ++i) b.solver->run_cycle();
  return (now_s() - t0) / kSpeedupCycles;
}

template <class Solver>
void add_speedup(Result& r, const SolveCase<Solver>& c) {
  const double t1 = early_cycle_s(c, 1);
  const double t4 = early_cycle_s(c, kProbeThreads);
  smp::set_global_threads(c.threads);
  add(r.layers, "solver.early_cycle_s.t1", t1, "s");
  add(r.layers, "solver.early_cycle_s.t4", t4, "s");
  add(r.layers, "solver.speedup_vs_1t", t1 / t4, "x");
  add(r.summary, "solver.speedup_vs_1t", t1 / t4, "x");
}

/// The closed loop of solves plus, in the traced run, the multigrid
/// timeline, overhead and speedup rows. Kernel probes are solver-specific
/// and run by the caller on `probe_solver`.
template <class Solver>
void run_solves(const Config& cfg, const SolveCase<Solver>& c, Result& r,
                SpanLog& log, Built<Solver>& probe_solver) {
  smp::set_global_threads(c.threads);
  r.threads = c.threads;
  std::vector<double> mesh_s, ctor_s;
  for (int k = 0; k < kSetupReps; ++k) {
    const double t0 = now_s();
    Built<Solver> b = c.build();
    log.add("setup", t0, now_s());
    mesh_s.push_back(b.mesh_s);
    ctor_s.push_back(b.ctor_s);
    r.setup_s.push_back(b.mesh_s + b.ctor_s);
  }

  double untraced_tts = 0;
  if (cfg.trace) {
    Built<Solver> b = c.build();
    untraced_tts = bench_solve(*b.solver, c.max_cycles, c.orders, nullptr).wall_s;
  }

  std::vector<Output> first;
  std::vector<real_t> first_history;
  std::vector<double> first_cycle_s;
  double traced_wall = 0;
  MgTimeline tl(0, cfg.trace ? &log : nullptr);
  closed_loop(cfg.seconds, cfg.trace ? 1 : 2, [&](int k) {
    Built<Solver> b = c.build();
    r.setup_s.push_back(b.mesh_s + b.ctor_s);
    if (k == 0) tl = MgTimeline(b.solver->num_levels(), cfg.trace ? &log : nullptr);
    tl.set_solve(k);
    if (cfg.trace) attach_timeline(*b.solver, tl);
    const SolveRun run =
        bench_solve(*b.solver, c.max_cycles, c.orders, cfg.trace ? &tl : nullptr);
    const double t_end = now_s();
    log.add("solve", t_end - run.wall_s, t_end, -1, -1, k);
    const std::vector<Output> outs = solve_outputs(run, *b.solver);
    std::string problem = check_solve(run, c, outs);
    if (k == 0) {
      first = outs;
      first_history = run.history;
    } else if (problem.empty() && !bitwise_equal(outs, first)) {
      problem = "repeat " + std::to_string(k) + " differs from repeat 0";
    }
    tally(r, problem);
    r.tts_s.push_back(run.wall_s);
    r.cycle_s.insert(r.cycle_s.end(), run.cycle_s.begin(), run.cycle_s.end());
    r.cycles.push_back(double(run.history.size() - 1));
    r.orders.push_back(orders_dropped(run.history));
    first_cycle_s.push_back(run.cycle_s.front());
    traced_wall += run.wall_s;
  });
  r.outputs = first;
  r.peak_rss_mb = peak_rss_mb();

  if (cfg.smoke) {
    // The bench loop must be solve() with a clock around each cycle.
    Built<Solver> b = c.build();
    const std::vector<real_t> h = b.solver->solve(c.max_cycles, c.orders);
    if (h.size() != first_history.size() ||
        std::memcmp(h.data(), first_history.data(),
                    h.size() * sizeof(real_t)) != 0)
      r.errors.push_back("bench loop history differs from solve()");
  }

  if (!cfg.trace) return;
  probe_solver = c.build();
  add(r.layers, "setup.mesh_s", median(mesh_s), "s");
  add(r.layers, "setup.ctor_s", median(ctor_s), "s");
  add(r.summary, "setup.mesh_s", median(mesh_s), "s");
  add(r.summary, "setup.ctor_s", median(ctor_s), "s");
  add_mg_metrics(r, tl.totals(), r.cycle_s, first_cycle_s, traced_wall);
  add_xchg_summary(r, 0, 0);
  add_overhead(r, median(r.tts_s), untraced_tts);
  add_speedup(r, c);
}

euler::FlowConditions wing_conditions(std::uint64_t seed) {
  euler::FlowConditions fc;
  fc.mach = 0.75;
  fc.alpha_deg = alpha_offset_deg(seed);
  fc.reynolds = 3.0e6;
  return fc;
}

struct WingCase {
  mesh::WingMeshSpec spec;
  nsu3d::Nsu3dOptions opt;
};

/// `replicated` selects the nsu3d-shm4 mesh (Fig. 16-18-style group runs).
WingCase wing_case(bool smoke, bool replicated) {
  WingCase w;
  w.spec.wall_spacing = 1e-4;
  if (smoke) {
    w.spec.n_wrap = 24;
    w.spec.n_span = 4;
    w.spec.n_normal = 10;
    w.opt.mg_levels = 3;
  } else if (replicated) {
    w.spec.n_wrap = 48;
    w.spec.n_span = 8;
    w.spec.n_normal = 20;
    w.opt.mg_levels = 4;
  } else {
    w.spec.n_wrap = 64;
    w.spec.n_span = 12;
    w.spec.n_normal = 24;
    w.opt.mg_levels = 4;
  }
  w.opt.cycle = nsu3d::CycleType::W;
  w.opt.smoother = nsu3d::SmootherKind::LineImplicit;
  return w;
}

/// Mesh + solver construction for a wing case, each part timed.
Built<nsu3d::Nsu3dSolver> build_wing(const WingCase& w,
                                     const euler::FlowConditions& fc) {
  Built<nsu3d::Nsu3dSolver> b;
  double t0 = now_s();
  const mesh::UnstructuredMesh m = mesh::make_wing_mesh(w.spec);
  b.mesh_s = now_s() - t0;
  t0 = now_s();
  b.solver = std::make_unique<nsu3d::Nsu3dSolver>(m, fc, w.opt);
  b.ctor_s = now_s() - t0;
  return b;
}

void run_nsu3d_wing(const Config& cfg, Result& r, SpanLog& log) {
  const WingCase w = wing_case(cfg.smoke, false);
  const euler::FlowConditions fc = wing_conditions(cfg.seed);
  SolveCase<nsu3d::Nsu3dSolver> c;
  c.build = [&] { return build_wing(w, fc); };
  c.threads = 4;
  c.max_cycles = 200;
  c.orders = cfg.smoke ? 2 : 3;
  Built<nsu3d::Nsu3dSolver> probe;
  run_solves(cfg, c, r, log, probe);
  if (!cfg.trace) return;
  add(r.layers, "mesh.wing_s", probe.mesh_s, "s");
  add(r.layers, "nsu3d.ctor_s", probe.ctor_s, "s");
  nsu3d_kernel_probes(*probe.solver, fc, w.opt, r, cfg.smoke);
  smp::set_global_threads(c.threads);
}

// --- cart3d-sslv -----------------------------------------------------------------

/// SSLV assembly inside a box padded by `pad` times its extent per side.
geom::Aabb padded_bounds(const geom::TriSurface& s, real_t pad) {
  geom::Aabb d = s.bounds();
  const geom::Vec3 p = pad * (d.hi - d.lo);
  d.lo -= p;
  d.hi += p;
  return d;
}

void run_cart3d_sslv(const Config& cfg, Result& r, SpanLog& log) {
  cartesian::CartMeshOptions mo;
  mo.base_n = cfg.smoke ? 8 : 24;
  mo.max_level = cfg.smoke ? 1 : 2;
  euler::FlowConditions fc;
  fc.mach = 2.6;
  fc.alpha_deg = 2.09 + alpha_offset_deg(cfg.seed);
  fc.beta_deg = 0.8;
  cart3d::SolverOptions so;
  so.mg_levels = 1;  // the paper's Fig. 21 single-grid scheme
  so.second_order = true;
  so.flux = euler::FluxScheme::VanLeer;
  so.cfl = 0.5;

  cartesian::CartMesh last_mesh;
  SolveCase<cart3d::Cart3DSolver> c;
  c.build = [&] {
    Built<cart3d::Cart3DSolver> b;
    double t0 = now_s();
    const geom::TriSurface sslv = geom::make_sslv(0.0, 1);
    last_mesh = cartesian::build_cart_mesh(sslv, padded_bounds(sslv, 1.0), mo);
    b.mesh_s = now_s() - t0;
    t0 = now_s();
    b.solver = std::make_unique<cart3d::Cart3DSolver>(last_mesh, fc, so);
    b.ctor_s = now_s() - t0;
    return b;
  };
  // One pool thread: Cart3D's face sweeps are serial, so four threads
  // solve barely faster (solver.speedup_vs_1t) while every pooled cell
  // loop waits on the slowest of four CPUs of a shared host, which made
  // tts_s drift with the host rather than the code. The traced run still
  // measures 1 vs 4 threads.
  c.threads = 1;
  c.max_cycles = cfg.smoke ? 10 : 100;
  c.orders = 1000;  // fixed budget: the target is never reached
  c.fixed_budget = true;
  Built<cart3d::Cart3DSolver> probe;
  run_solves(cfg, c, r, log, probe);
  if (!cfg.trace) return;
  // last_mesh is the probe solver's mesh (the last one built).
  add(r.layers, "cartesian.mesh_s", probe.mesh_s, "s");
  add(r.layers, "cart3d.ctor_s", probe.ctor_s, "s");
  add(r.layers, "cartesian.cells", double(last_mesh.num_cells()), "count");
  add(r.layers, "cartesian.cut_cells", double(last_mesh.num_cut_cells()),
      "count");
  cart3d_kernel_probes(*probe.solver, true, r, cfg.smoke);
  smp::set_global_threads(c.threads);
}

// --- sslv-database --------------------------------------------------------------

driver::DatabaseSpec database_spec(const Config& cfg) {
  const real_t da = alpha_offset_deg(cfg.seed);
  driver::DatabaseSpec spec;
  if (cfg.smoke) {
    spec.deflections = {0.0, 0.15};
    spec.machs = {2.6};
    spec.alphas_deg = {da};
    spec.mesh_options.base_n = 8;
    spec.mesh_options.max_level = 1;
    spec.max_cycles = 8;
  } else {
    spec.deflections = {-0.15, 0.0, 0.15};  // elevon settings
    spec.machs = {1.6, 2.6};
    spec.alphas_deg = {-2.0 + da, 0.0 + da, 2.0 + da};
    spec.mesh_options.base_n = 20;
    spec.mesh_options.max_level = 2;
    spec.max_cycles = 40;
  }
  spec.betas_deg = {0.0, 0.8};
  spec.solver_options.flux = euler::FluxScheme::VanLeer;
  spec.solver_options.second_order = false;
  spec.solver_options.mg_levels = 2;
  spec.convergence_orders = 3;
  spec.simultaneous_cases = 4;
  return spec;
}

std::vector<Output> case_outputs(std::size_t k, const driver::CaseResult& c) {
  const std::string p = "case" + std::to_string(k) + ".";
  return {{p + "cycles", double(c.cycles), true},
          {p + "residual_drop", double(c.residual_drop), false},
          {p + "cl", double(c.cl), false},
          {p + "cd", double(c.cd), false}};
}

std::string check_case(const driver::CaseResult& c,
                       const std::vector<Output>& outs) {
  if (c.status == driver::CaseStatus::Failed ||
      c.status == driver::CaseStatus::Degraded)
    return std::string("case ") + driver::case_status_name(c.status);
  if (!all_finite(outs) || !(c.residual_drop > 0)) return "non-finite case";
  return {};
}

void run_sslv_database(const Config& cfg, Result& r, SpanLog& log) {
  // Cases run side by side on DatabaseFill's own threads; each case's
  // solver takes the pool's inline serial path.
  r.threads = 1;
  smp::set_global_threads(1);
  const driver::DatabaseSpec spec = database_spec(cfg);

  std::vector<std::vector<Output>> first;
  driver::DatabaseStats last_stats;
  double last_fill_s = 0;
  std::vector<driver::CaseResult> last_results;
  closed_loop(cfg.seconds, 2, [&](int k) {
    driver::DatabaseFill fill(spec);
    const double t0 = now_s();
    const std::vector<driver::CaseResult> results = fill.run();
    const double fill_s = now_s() - t0;
    log.add("database.fill", t0, t0 + fill_s, -1, -1, k);
    const driver::DatabaseStats& st = fill.stats();
    double cycles = 0, orders = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const std::vector<Output> outs = case_outputs(i, results[i]);
      std::string problem = check_case(results[i], outs);
      if (k == 0) {
        first.push_back(outs);
        r.outputs.insert(r.outputs.end(), outs.begin(), outs.end());
      } else if (problem.empty() && !bitwise_equal(outs, first[i])) {
        problem = "fill " + std::to_string(k) + " case " + std::to_string(i) +
                  " differs from fill 0";
      }
      tally(r, problem);
      cycles += results[i].cycles;
      orders += -std::log10(double(results[i].residual_drop));
    }
    r.tts_s.push_back(fill_s);
    r.setup_s.push_back(st.mesh_gen_seconds);
    r.s_per_cycle.push_back(st.solve_seconds / std::max(cycles, 1.0));
    r.cycles.push_back(cycles);
    r.orders.push_back(orders / double(std::max<std::size_t>(results.size(), 1)));
    last_stats = st;
    last_fill_s = fill_s;
    last_results = results;
  });
  r.peak_rss_mb = peak_rss_mb();
  if (!cfg.trace) return;

  // Driver rows of the last fill.
  const driver::DatabaseStats& st = last_stats;
  int ok = 0, recovered = 0, degraded = 0, failed = 0;
  double cycles_total = 0;
  for (const driver::CaseResult& c : last_results) {
    ok += c.status == driver::CaseStatus::Ok;
    recovered += c.status == driver::CaseStatus::Recovered;
    degraded += c.status == driver::CaseStatus::Degraded;
    failed += c.status == driver::CaseStatus::Failed;
    cycles_total += c.cycles;
  }
  add(r.layers, "driver.mesh_gen_s", st.mesh_gen_seconds, "s");
  add(r.layers, "driver.cells_per_min", st.cells_per_minute(), "1/min");
  add(r.layers, "driver.solve_s", st.solve_seconds, "s");
  add(r.layers, "driver.cycles_total", cycles_total, "count");
  add(r.layers, "driver.cases_per_min",
      double(last_results.size()) / last_fill_s * 60.0, "1/min");
  add(r.layers, "driver.cases.ok", ok, "count");
  add(r.layers, "driver.cases.recovered", recovered, "count");
  add(r.layers, "driver.cases.degraded", degraded, "count");
  add(r.layers, "driver.cases.failed", failed, "count");

  // One case alone (deflection 0, the last Mach, first alpha and beta),
  // built the way DatabaseFill builds it: the solve rate without other
  // cases beside it, and the layers below the driver.
  euler::FlowConditions fc;
  fc.mach = spec.machs.back();
  fc.alpha_deg = spec.alphas_deg.front();
  fc.beta_deg = spec.betas_deg.front();
  cartesian::CartMesh case_mesh;
  SolveCase<cart3d::Cart3DSolver> c;
  c.build = [&] {
    Built<cart3d::Cart3DSolver> b;
    double t0 = now_s();
    const geom::TriSurface surface = spec.geometry(0.0);
    case_mesh = cartesian::build_cart_mesh(surface, padded_bounds(surface, 1.5),
                                           spec.mesh_options);
    b.mesh_s = now_s() - t0;
    t0 = now_s();
    b.solver = std::make_unique<cart3d::Cart3DSolver>(case_mesh, fc,
                                                      spec.solver_options);
    b.ctor_s = now_s() - t0;
    return b;
  };
  c.threads = 1;
  c.max_cycles = spec.max_cycles;
  c.orders = spec.convergence_orders;
  Result iso;
  Config icfg = cfg;
  icfg.seconds = std::min(cfg.seconds, 5.0);
  Built<cart3d::Cart3DSolver> probe;
  run_solves(icfg, c, iso, log, probe);
  // The isolated case need not reach the target in its budget (the fill
  // records it as ok either way); only its timings are used.
  const double iso_spc = median(iso.cycle_s);
  add(r.layers, "driver.case_s_per_cycle.isolated", iso_spc, "s");
  add(r.layers, "driver.case_concurrency_eff",
      iso_spc * cycles_total /
          (double(spec.simultaneous_cases) * st.solve_seconds),
      "frac");
  r.layers.insert(r.layers.end(), iso.layers.begin(), iso.layers.end());
  r.summary.insert(r.summary.end(), iso.summary.begin(), iso.summary.end());
  add(r.layers, "cartesian.mesh_s", probe.mesh_s, "s");
  add(r.layers, "cart3d.ctor_s", probe.ctor_s, "s");
  add(r.layers, "cartesian.cells", double(case_mesh.num_cells()), "count");
  add(r.layers, "cartesian.cut_cells", double(case_mesh.num_cut_cells()),
      "count");
  cart3d_kernel_probes(*probe.solver, false, r, cfg.smoke);
  smp::set_global_threads(1);
}

// --- nsu3d-shm4 ------------------------------------------------------------------

constexpr int kShmRanks = 4;
/// Halo pattern: the level's nodes cut into contiguous blocks, as in
/// examples/distributed_solve; 8 blocks spread over 4 members.
constexpr index_t kHaloParts = 8;
constexpr int kMaxShmCycles = 256;
constexpr int kDrainQuietMs = 50;

/// One rank's report, written by the forked rank into a MAP_SHARED page
/// the parent reads after the group is reaped. Steady-clock times are
/// system-wide, so parent and ranks share one clock.
struct RankSlot {
  double t_body = 0, t_ready = 0, t_solve0 = 0, t_solve1 = 0, t_end = 0;
  double mesh_s = 0, ctor_s = 0;
  int status = 0;  // 0 = did not finish, 1 = ok
  int ncycles = 0;
  double h0 = 0, final_res = 0, cl = 0, cd = 0;
  double cycle_s[kMaxShmCycles] = {};
  MgTotals mg;
  std::uint64_t messages = 0, bytes = 0, retransmits = 0;
  char error[160] = {};
};

/// Anonymous shared mapping holding the group's rank slots.
class SharedSlots {
 public:
  SharedSlots() {
    void* p = mmap(nullptr, sizeof(RankSlot) * kShmRanks,
                   PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::runtime_error("mmap of rank slots failed");
    slots_ = static_cast<RankSlot*>(p);
    reset();
  }
  ~SharedSlots() { munmap(slots_, sizeof(RankSlot) * kShmRanks); }
  SharedSlots(const SharedSlots&) = delete;
  SharedSlots& operator=(const SharedSlots&) = delete;

  void reset() {
    for (int r = 0; r < kShmRanks; ++r) new (&slots_[r]) RankSlot();
  }
  RankSlot& operator[](int r) { return slots_[r]; }

 private:
  RankSlot* slots_ = nullptr;
};

struct ShmCase {
  WingCase wing;
  euler::FlowConditions fc;
  std::uint64_t seed = 1;
  int max_cycles = 200;
  real_t orders = 3;
  index_t agglomerate = 64;
};

/// Partition of a level's nodes into kHaloParts contiguous blocks; other
/// seeds than 1 rotate the block boundaries by a seeded offset.
std::vector<index_t> halo_partition(index_t nn, int level, std::uint64_t seed) {
  index_t shift = 0;
  if (seed != 1) {
    Xoshiro256 rng(seed * 131 + std::uint64_t(level));
    shift = index_t(rng.below(std::uint64_t(nn)));
  }
  std::vector<index_t> p(static_cast<std::size_t>(nn));
  for (index_t i = 0; i < nn; ++i)
    p[std::size_t(i)] = index_t(std::int64_t((i + shift) % nn) * kHaloParts / nn);
  return p;
}

/// One rank of the group: the replicated wing solve with the
/// distributed_solve exchange schedule (per-level split exchange on the
/// level hooks, agglomerated coarse levels, a transfer plan across the
/// rank-set seam), every delivered ghost validated.
int shm_rank(int rank, core::Transport& t, const ShmCase& c, RankSlot& s,
             bool solve, const std::string& trace_path) {
  s.t_body = now_s();
  double t0 = now_s();
  const mesh::UnstructuredMesh wing = mesh::make_wing_mesh(c.wing.spec);
  s.mesh_s = now_s() - t0;
  t0 = now_s();
  nsu3d::Nsu3dSolver solver(wing, c.fc, c.wing.opt);
  s.ctor_s = now_s() - t0;

  const int nl = solver.num_levels();
  std::vector<index_t> level_nodes;
  for (int l = 0; l < nl; ++l) level_nodes.push_back(solver.level(l).num_nodes);
  const core::AgglomerationSchedule sched = core::AgglomerationSchedule::build(
      level_nodes, t.group_size(), c.agglomerate);

  core::ExchangePlanOptions xopt;
  xopt.transport = &t;
  xopt.wire.deadline_ms = 200;
  xopt.wire.max_attempts = 8;
  xopt.wire.backoff_base_ms = 1;
  xopt.wire.backoff_max_ms = 8;
  std::vector<std::vector<index_t>> part;
  std::vector<std::unique_ptr<core::ExchangePlan>> plans;
  for (int l = 0; l < nl; ++l) {
    part.push_back(halo_partition(level_nodes[std::size_t(l)], l, c.seed));
    core::ExchangePlanOptions lopt = xopt;
    lopt.level = l;
    lopt.active_members = sched.active[std::size_t(l)];
    plans.push_back(std::make_unique<core::ExchangePlan>(
        nsu3d::halo_requests(solver.level(l), part.back(), kHaloParts), lopt));
  }
  // Restriction gather across the rank-set seam of the two coarsest levels.
  const int lf = nl - 2, lc = nl - 1;
  core::RequestLists xfer_reqs(static_cast<std::size_t>(kHaloParts));
  const auto& to_coarse = solver.level(lf).to_coarse;
  for (index_t v = 0; v < level_nodes[std::size_t(lf)]; ++v) {
    const index_t fp = part[std::size_t(lf)][std::size_t(v)];
    const index_t cp =
        part[std::size_t(lc)][std::size_t(to_coarse[std::size_t(v)])];
    if (fp != cp) xfer_reqs[std::size_t(cp)].push_back({fp, v});
  }
  core::ExchangePlanOptions xfopt = xopt;
  xfopt.level = lc;
  xfopt.active_members = sched.active[std::size_t(lc)];
  xfopt.sender_active_members = sched.active[std::size_t(lf)];
  core::ExchangePlan xfer_plan(std::move(xfer_reqs), xfopt);
  s.t_ready = now_s();
  if (!solve) {
    s.status = 1;
    s.t_end = now_s();
    return 0;
  }

  std::vector<core::PartitionData> data(
      static_cast<std::size_t>(nl),
      core::PartitionData(static_cast<std::size_t>(kHaloParts)));
  core::PartitionData xfer_data(static_cast<std::size_t>(kHaloParts));
  const auto pack_level = [&](int l, core::PartitionData& dst) {
    const std::span<const nsu3d::State> u = solver.solution(l);
    for (auto& d : dst) {
      d.resize(u.size());
      for (std::size_t i = 0; i < u.size(); ++i) d[i] = u[i][0];
    }
  };
  const auto validate = [&](core::ExchangePlan& plan,
                            const core::PartitionData& got,
                            const core::PartitionData& want) {
    for (std::size_t p = 0; p < got.size(); ++p) {
      const auto& reqs = plan.requests()[p];
      for (std::size_t k = 0; k < reqs.size(); ++k)
        if (got[p][k] != want[std::size_t(reqs[k].from_partition)]
                             [std::size_t(reqs[k].item)])
          throw std::runtime_error("halo ghost mismatch");
    }
  };

  SpanLog log;
  MgTimeline tl(nl, trace_path.empty() ? nullptr : &log);
  solver.set_level_hooks(
      [&](int l) {
        const double h0 = now_s();
        pack_level(l, data[std::size_t(l)]);
        plans[std::size_t(l)]->post(data[std::size_t(l)]);
        if (l == lc) {
          pack_level(lf, xfer_data);
          xfer_plan.post(xfer_data);
        }
        tl.hook_begin(l, h0, now_s());
      },
      [&](int l) {
        const double h0 = now_s();
        auto& plan = *plans[std::size_t(l)];
        validate(plan, plan.finish(), data[std::size_t(l)]);
        if (l == lc) validate(xfer_plan, xfer_plan.finish(), xfer_data);
        tl.hook_end(l, h0, now_s());
      });

  s.t_solve0 = now_s();
  const SolveRun run = bench_solve(solver, c.max_cycles, c.orders, &tl);
  s.t_solve1 = now_s();
  // Exit grace for peers still waiting on an Ack. No frame is lost on this
  // fault-free wire, so a short quiet window is enough.
  for (auto& plan : plans) plan->drain(kDrainQuietMs);
  xfer_plan.drain(kDrainQuietMs);

  const nsu3d::Forces f = solver.integrate_forces();
  s.ncycles = int(run.history.size()) - 1;
  s.h0 = run.history.front();
  s.final_res = run.history.back();
  s.cl = f.cl;
  s.cd = f.cd;
  for (std::size_t i = 0; i < run.cycle_s.size() && i < kMaxShmCycles; ++i)
    s.cycle_s[i] = run.cycle_s[i];
  s.mg = tl.totals();
  for (const auto& plan : plans) {
    s.messages += plan->stats().messages;
    s.bytes += plan->stats().bytes;
    s.retransmits += plan->stats().retransmits;
  }
  s.messages += xfer_plan.stats().messages;
  s.bytes += xfer_plan.stats().bytes;
  s.retransmits += xfer_plan.stats().retransmits;
  if (!trace_path.empty())
    log.write_chrome_trace(trace_path + ".rank" + std::to_string(rank) +
                               ".trace.json",
                           rank + 1);
  s.status = 1;
  s.t_end = now_s();
  return 0;
}

struct GroupRun {
  bool ok = false;
  std::string error;
  double t_launch = 0, t_reaped = 0;
  smp::GroupResult group;
};

GroupRun launch_group(const ShmCase& c, SharedSlots& slots, bool solve,
                      const std::string& trace_path) {
  smp::ProcessGroupOptions opts;
  opts.ranks = kShmRanks;
  opts.backend = smp::GroupBackend::Shm;
  opts.wall_timeout_ms = 60000;
  slots.reset();
  GroupRun g;
  g.t_launch = now_s();
  g.group = smp::ProcessGroup::run(opts, [&](int rank, core::Transport& t) {
    RankSlot& s = slots[rank];
    try {
      return shm_rank(rank, t, c, s, solve, trace_path);
    } catch (const std::exception& e) {
      std::snprintf(s.error, sizeof(s.error), "%s", e.what());
      return 3;
    }
  });
  g.t_reaped = now_s();
  g.ok = g.group.ok;
  for (int r = 0; r < kShmRanks; ++r) {
    if (slots[r].status == 1) continue;
    g.ok = false;
    g.error = "rank " + std::to_string(r) + " failed" +
              (slots[r].error[0] ? std::string(": ") + slots[r].error : "");
  }
  if (!g.ok && g.error.empty()) g.error = "process group failed";
  return g;
}

void run_nsu3d_shm4(const Config& cfg, Result& r, SpanLog& log) {
  // Ranks run one pool thread each; they build their pools after the fork
  // (this process has not started its pool yet, see workload_names()).
  setenv("COLUMBIA_THREADS", "1", 1);
  r.threads = 1;
  ShmCase c;
  c.wing = wing_case(cfg.smoke, true);
  c.fc = wing_conditions(cfg.seed);
  c.seed = cfg.seed;
  c.orders = cfg.smoke ? 2 : 3;
  SharedSlots slots;

  auto setup_of = [&](const GroupRun& g) {
    double ready = 0;
    for (int k = 0; k < kShmRanks; ++k) ready = std::max(ready, slots[k].t_ready);
    return ready - g.t_launch;
  };
  for (int k = 0; k < kSetupReps; ++k) {
    const GroupRun g = launch_group(c, slots, false, "");
    log.add("group.setup", g.t_launch, g.t_reaped);
    if (g.ok) r.setup_s.push_back(setup_of(g));
    else if (r.errors.size() < 16) r.errors.push_back(g.error);
  }

  double untraced_tts = 0;
  auto solve_span = [&]() {
    double t0 = 1e300, t1 = 0;
    for (int k = 0; k < kShmRanks; ++k) {
      t0 = std::min(t0, slots[k].t_solve0);
      t1 = std::max(t1, slots[k].t_solve1);
    }
    return t1 - t0;
  };
  if (cfg.trace) {
    const GroupRun g = launch_group(c, slots, true, "");
    untraced_tts = solve_span();
    if (!g.ok && r.errors.size() < 16) r.errors.push_back(g.error);
  }

  const std::string trace_base = cfg.out_dir + "/trace/nsu3d-shm4";
  std::vector<Output> first;
  std::vector<double> first_cycle_s, launch_s, teardown_s, imbalance;
  MgTotals mg;
  double post[kMaxLevels] = {}, finish[kMaxLevels] = {};
  double messages = 0, bytes = 0, retransmits = 0, traced_wall = 0;
  core::TransportCounters counters;
  closed_loop(cfg.seconds, cfg.trace ? 1 : 2, [&](int k) {
    const GroupRun g =
        launch_group(c, slots, true, cfg.trace && k == 0 ? trace_base : "");
    log.add("group.solve", g.t_launch, g.t_reaped, -1, -1, k);
    std::string problem = g.error;
    const RankSlot& s0 = slots[0];
    const std::vector<Output> outs = {
        {"cycles", double(s0.ncycles), true},
        {"final_residual", s0.final_res, false},
        {"orders_dropped", -std::log10(s0.final_res / s0.h0), false},
        {"cl", s0.cl, false},
        {"cd", s0.cd, false}};
    if (problem.empty()) {
      for (int q = 1; q < kShmRanks; ++q)
        if (std::memcmp(&slots[q].final_res, &s0.final_res, sizeof(double)) ||
            std::memcmp(&slots[q].cl, &s0.cl, sizeof(double)) ||
            slots[q].ncycles != s0.ncycles)
          problem = "rank " + std::to_string(q) + " disagrees with rank 0";
      if (problem.empty() && (!all_finite(outs) || !(s0.h0 > 0)))
        problem = "non-finite solve";
      else if (problem.empty() &&
               -std::log10(s0.final_res / s0.h0) < double(c.orders))
        problem = "did not drop the target orders in " +
                  std::to_string(s0.ncycles) + " cycles";
    }
    if (k == 0) first = outs;
    else if (problem.empty() && !bitwise_equal(outs, first))
      problem = "group " + std::to_string(k) + " differs from group 0";
    tally(r, problem);
    if (!g.ok) return;

    r.setup_s.push_back(setup_of(g));
    r.tts_s.push_back(solve_span());
    const int nc = std::min(s0.ncycles, kMaxShmCycles);
    r.cycle_s.insert(r.cycle_s.end(), s0.cycle_s, s0.cycle_s + nc);
    r.cycles.push_back(s0.ncycles);
    r.orders.push_back(-std::log10(s0.final_res / s0.h0));
    first_cycle_s.push_back(s0.cycle_s[0]);
    if (!cfg.trace) return;

    // Rank 0's multigrid timeline; exchange times are the rank maximum.
    mg.accumulate(s0.mg);
    for (int l = 0; l < kMaxLevels; ++l) {
      double pmax = 0, fmax = 0;
      for (int q = 0; q < kShmRanks; ++q) {
        pmax = std::max(pmax, slots[q].mg.post[l]);
        fmax = std::max(fmax, slots[q].mg.finish[l]);
      }
      post[l] += pmax;
      finish[l] += fmax;
    }
    traced_wall += s0.t_solve1 - s0.t_solve0;
    double body_start = 0, body_end = 0, rank_sum = 0, rank_max = 0;
    for (int q = 0; q < kShmRanks; ++q) {
      const RankSlot& s = slots[q];
      messages += double(s.messages);
      bytes += double(s.bytes);
      retransmits += double(s.retransmits);
      body_start = std::max(body_start, s.t_body);
      body_end = std::max(body_end, s.t_end);
      const double solve = s.t_solve1 - s.t_solve0;
      rank_sum += solve;
      rank_max = std::max(rank_max, solve);
    }
    launch_s.push_back(body_start - g.t_launch);
    teardown_s.push_back(g.t_reaped - body_end);
    imbalance.push_back(rank_max / (rank_sum / kShmRanks));
    for (int q = 0; q < core::kNumTransportCounters; ++q)
      counters.v[q] += g.group.total.v[q];
  });
  r.outputs = first;
  r.peak_rss_mb = peak_rss_mb(kShmRanks);
  if (!cfg.trace || mg.cycles == 0) return;

  // Per-layer rows. Forking is over: the probes below may use the pool.
  unsetenv("COLUMBIA_THREADS");
  const double n = mg.cycles;
  double finish_all = 0;
  for (int l = 0; l < mg.levels; ++l) {
    const std::string L = ".L" + std::to_string(l);
    add(r.layers, "core.xchg.post_s" + L, post[l] / n, "s");
    add(r.layers, "core.xchg.finish_s" + L, finish[l] / n, "s");
    finish_all += mg.finish[l];
  }
  add(r.layers, "core.xchg.messages", messages, "count");
  add(r.layers, "core.xchg.bytes", bytes, "B");
  add(r.layers, "core.xchg.retransmits", retransmits, "count");
  add(r.layers, "core.xchg.finish_frac", finish_all / mg.cycles_wall, "frac");
  add(r.layers, "smp.transport.timeouts", double(counters.timeouts()), "count");
  add(r.layers, "smp.transport.heartbeats", double(counters.heartbeats()),
      "count");
  add(r.layers, "smp.group.launch_s", median(launch_s), "s");
  add(r.layers, "smp.group.teardown_s", median(teardown_s), "s");
  add(r.layers, "smp.group.rank_imbalance", median(imbalance), "x");
  add(r.layers, "mesh.wing_s", slots[0].mesh_s, "s");
  add(r.layers, "nsu3d.ctor_s", slots[0].ctor_s, "s");
  add(r.layers, "setup.mesh_s", slots[0].mesh_s, "s");
  add(r.layers, "setup.ctor_s", slots[0].ctor_s, "s");
  add(r.summary, "setup.mesh_s", slots[0].mesh_s, "s");
  add(r.summary, "setup.ctor_s", slots[0].ctor_s, "s");
  add_mg_metrics(r, mg, r.cycle_s, first_cycle_s, traced_wall);
  // Wire messages of all ranks per (rank 0) cycle.
  add_xchg_summary(r, messages / n, finish_all / mg.cycles_wall);
  add_overhead(r, median(r.tts_s), untraced_tts);

  // The same solver in this process: thread scaling and kernels.
  SolveCase<nsu3d::Nsu3dSolver> inproc;
  inproc.build = [&] { return build_wing(c.wing, c.fc); };
  inproc.threads = 1;
  add_speedup(r, inproc);
  Built<nsu3d::Nsu3dSolver> probe = inproc.build();
  nsu3d_kernel_probes(*probe.solver, c.fc, c.wing.opt, r, cfg.smoke);
  smp::set_global_threads(1);
}

}  // namespace

Result run_workload(const Config& cfg) {
  Result r;
  r.workload = cfg.workload;
  SpanLog log;
  try {
    if (cfg.workload == "nsu3d-wing") run_nsu3d_wing(cfg, r, log);
    else if (cfg.workload == "cart3d-sslv") run_cart3d_sslv(cfg, r, log);
    else if (cfg.workload == "sslv-database") run_sslv_database(cfg, r, log);
    else if (cfg.workload == "nsu3d-shm4") run_nsu3d_shm4(cfg, r, log);
    else r.errors.push_back("unknown workload '" + cfg.workload + "'");
  } catch (const std::exception& e) {
    r.errors.push_back(std::string("uncaught: ") + e.what());
  }
  if (cfg.trace) {
    const std::string path =
        cfg.out_dir + "/trace/" + cfg.workload + ".trace.json";
    if (!log.write_chrome_trace(path, 0))
      r.errors.push_back("cannot write " + path);
  }
  return r;
}

}  // namespace columbia::cbench
