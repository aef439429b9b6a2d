// Tracing must be numerically invisible: residual histories are
// bit-identical with observability on or off, at any thread count, and
// while every cycle records its convergence record. This is the contract
// that lets the instrumentation live permanently in the solver hot paths.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "cart3d/solver.hpp"
#include "core/exchange_plan.hpp"
#include "core/params.hpp"
#include "geom/components.hpp"
#include "mesh/builders.hpp"
#include "nsu3d/partitioned.hpp"
#include "nsu3d/solver.hpp"
#include "obs/obs.hpp"
#include "obs/shard.hpp"
#include "resil/faults.hpp"
#include "smp/pool.hpp"

namespace columbia {
namespace {

/// Restores single-threaded, observability-off state when a test exits.
struct Guard {
  ~Guard() {
    obs::set_enabled(false);
    obs::reset_trace();
    obs::reset_metrics();
    smp::set_global_threads(1);
  }
};

mesh::UnstructuredMesh small_wing() {
  mesh::WingMeshSpec spec;
  spec.n_wrap = 24;
  spec.n_span = 3;
  spec.n_normal = 10;
  spec.wall_spacing = 1e-4;
  return mesh::make_wing_mesh(spec);
}

euler::FlowConditions nsu3d_conditions() {
  euler::FlowConditions fc;
  fc.mach = 0.75;
  fc.reynolds = 3e6;
  return fc;
}

nsu3d::Nsu3dOptions nsu3d_options() {
  nsu3d::Nsu3dOptions o;
  o.mg_levels = 3;
  return o;
}

/// `records`, when set, receives the cycle records the solve emitted.
std::vector<real_t> run_nsu3d(const mesh::UnstructuredMesh& m, int threads,
                              bool tracing,
                              std::vector<obs::CycleRecord>* records = nullptr) {
  Guard guard;
  smp::set_global_threads(threads);
  obs::set_enabled(tracing);
  nsu3d::Nsu3dSolver s(m, nsu3d_conditions(), nsu3d_options());
  const std::vector<real_t> hist = s.solve(5, 10);
  if (records != nullptr) *records = obs::cycle_records();
  return hist;
}

std::vector<real_t> run_cart3d(const cartesian::CartMesh& m, int threads,
                               bool tracing) {
  Guard guard;
  smp::set_global_threads(threads);
  obs::set_enabled(tracing);
  euler::FlowConditions fc;
  fc.mach = 0.3;
  fc.alpha_deg = 2.0;
  cart3d::SolverOptions o;
  o.mg_levels = 2;
  cart3d::Cart3DSolver s(m, fc, o);
  return s.solve(10, 6);
}

cartesian::CartMesh small_sphere_mesh() {
  const geom::TriSurface sphere = geom::make_sphere({0, 0, 0}, 0.4, 12, 24);
  geom::Aabb domain;
  domain.expand({-1.5, -1.5, -1.5});
  domain.expand({1.5, 1.5, 1.5});
  cartesian::CartMeshOptions opt;
  opt.base_n = 8;
  opt.max_level = 1;
  return cartesian::build_cart_mesh(sphere, domain, opt);
}

void expect_equal(const std::vector<real_t>& a, const std::vector<real_t>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i])
      << "cycle " << i;
}

TEST(ObsDeterminism, Nsu3dTracingOnVsOff) {
  const auto m = small_wing();
  expect_equal(run_nsu3d(m, 1, false), run_nsu3d(m, 1, true));
}

TEST(ObsDeterminism, Nsu3dTracedHistoryThreadInvariant) {
  const auto m = small_wing();
  expect_equal(run_nsu3d(m, 1, true), run_nsu3d(m, 3, true));
}

TEST(ObsDeterminism, Nsu3dTelemetrySinkInvisible) {
  const auto m = small_wing();
  std::vector<obs::CycleRecord> records;
  const std::vector<real_t> traced = run_nsu3d(m, 2, true, &records);
  expect_equal(run_nsu3d(m, 2, false), traced);
  ASSERT_EQ(records.size(), traced.size() - 1);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].solver, "nsu3d");
    EXPECT_EQ(records[i].cycle, int(i + 1));
    EXPECT_EQ(records[i].residual, double(traced[i + 1]));
    EXPECT_EQ(records[i].levels.size(), 3u);
  }
}

TEST(ObsDeterminism, Cart3dTracingOnVsOff) {
  const auto m = small_sphere_mesh();
  expect_equal(run_cart3d(m, 1, false), run_cart3d(m, 1, true));
}

TEST(ObsDeterminism, Cart3dTracedHistoryThreadInvariant) {
  const auto m = small_sphere_mesh();
  expect_equal(run_cart3d(m, 1, true), run_cart3d(m, 4, true));
}

// The distributed flight recorder (obs/shard.hpp) must be exactly as
// invisible as plain tracing: it arms the same span recorder, adds a
// durable-rewrite autoflush thread, and never touches solver arithmetic.
// (The forked shm/tcp recorder-on/off story lives in test_flight_recorder;
// here the in-process threads backend pins the same contract under tsan.)

std::vector<real_t> run_nsu3d_recorded(const mesh::UnstructuredMesh& m,
                                       int threads) {
  Guard guard;
  smp::set_global_threads(threads);
  obs::ShardOptions so;
  so.path = testing::TempDir() + "obs_det_shard.jsonl";
  so.backend = "threads";
  so.flush_ms = 20;  // keep the autoflush thread busy during the solve
  obs::FlightRecorder rec(so);
  nsu3d::Nsu3dSolver s(m, nsu3d_conditions(), nsu3d_options());
  const std::vector<real_t> hist = s.solve(5, 10);
  obs::ShardClock clock;
  clock.synced = true;
  rec.finalize(clock);
  return hist;
}

TEST(ObsDeterminism, Nsu3dFlightRecorderOnVsOff) {
  const auto m = small_wing();
  expect_equal(run_nsu3d(m, 2, false), run_nsu3d_recorded(m, 2));
}

// The comm observatory (halo.xchg spans on the partitioned exchange path)
// must be exactly as invisible as the rest of the instrumentation: the
// partitioned residual is bit-identical with span recording on or off, at
// any thread count, with either exchange strategy, and with halo fault
// injection armed or not.

struct FaultGuard {
  explicit FaultGuard(const std::string& spec) {
    resil::FaultInjector::global().configure(resil::parse_fault_spec(spec));
  }
  ~FaultGuard() { resil::FaultInjector::global().reset(); }
};

// A guarded solve records through the same run_cycle path as solve():
// one record per cycle attempt, rolled-back attempts included.

TEST(ObsDeterminism, GuardedSolveRecordsEveryCycleAttempt) {
  const auto m = small_wing();
  const std::vector<real_t> plain = run_nsu3d(m, 1, false);
  {
    Guard guard;
    obs::set_enabled(true);
    nsu3d::Nsu3dSolver s(m, nsu3d_conditions(), nsu3d_options());
    const resil::GuardedSolveResult gr = s.solve_guarded(5, 10);
    expect_equal(plain, gr.history);
    const std::vector<obs::CycleRecord> recs = obs::cycle_records();
    ASSERT_EQ(recs.size(), gr.history.size() - 1);
    for (std::size_t i = 0; i < recs.size(); ++i) {
      EXPECT_EQ(recs[i].cycle, int(i + 1));
      EXPECT_EQ(recs[i].residual, double(gr.history[i + 1]));
    }
  }
  {
    Guard guard;
    FaultGuard faults("seed=42,state_nan=0.5@2");
    obs::set_enabled(true);
    obs::Counter& calls = obs::counter("nsu3d.cycles");
    const std::uint64_t calls0 = calls.value();
    nsu3d::Nsu3dSolver s(m, nsu3d_conditions(), nsu3d_options());
    const resil::GuardedSolveResult gr = s.solve_guarded(8, 10);
    ASSERT_GE(gr.rollbacks, 1);
    const std::vector<obs::CycleRecord> recs = obs::cycle_records();
    ASSERT_EQ(recs.size(), calls.value() - calls0);
    EXPECT_EQ(std::uint64_t(gr.rollbacks),
              resil::FaultInjector::global().injected(
                  resil::FaultKind::StateNaN));
    int nonfinite = 0;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      EXPECT_EQ(recs[i].cycle, int(i + 1));
      if (!std::isfinite(recs[i].residual)) ++nonfinite;
    }
    EXPECT_EQ(nonfinite, gr.rollbacks);
  }
}

std::vector<nsu3d::State> run_nsu3d_partitioned(
    const nsu3d::Level& lvl, const std::vector<nsu3d::State>& u,
    const euler::Prim& inf, std::span<const index_t> part, int threads,
    bool tracing, const core::ExchangePlanOptions& comm) {
  Guard guard;
  smp::set_global_threads(threads);
  obs::set_enabled(tracing);
  return nsu3d::parallel_residual(lvl, u, inf, part, 4, comm);
}

TEST(ObsDeterminism, PartitionedResidualCommObservatoryInvisible) {
  mesh::WingMeshSpec spec;
  spec.n_wrap = 24;
  spec.n_span = 3;
  spec.n_normal = 10;
  spec.wall_spacing = 1e-4;
  const auto m = mesh::make_wing_mesh(spec);
  nsu3d::LevelOptions lo;
  lo.num_levels = 1;
  const auto levels = nsu3d::build_levels(m, lo);
  const nsu3d::Level& lvl = levels[0];

  euler::FlowConditions fc;
  fc.mach = 0.6;
  const euler::Prim inf = fc.freestream();
  std::vector<nsu3d::State> u(std::size_t(lvl.num_nodes));
  for (index_t v = 0; v < lvl.num_nodes; ++v) {
    const geom::Vec3& x = lvl.node_center[std::size_t(v)];
    euler::Prim w = inf;
    w.rho *= 1.0 + 0.05 * std::sin(x.x + 0.3 * x.y);
    w.p *= 1.0 + 0.05 * std::cos(0.7 * x.z);
    const auto c5 = euler::to_conservative(w);
    for (int c = 0; c < 5; ++c)
      u[std::size_t(v)][std::size_t(c)] = c5[std::size_t(c)];
    u[std::size_t(v)][5] = 1e-5 * w.rho;
  }
  const auto plan = nsu3d::build_partition_plan(levels, 4);
  const auto& part = plan.levels[0].part;

  const core::ExchangePlanOptions configs[] = {
      {core::ExchangeStrategy::ThreadToThread, 1, 0},
      {core::ExchangeStrategy::MasterThread, 2, 0},
  };
  const auto baseline =
      run_nsu3d_partitioned(lvl, u, inf, part, 1, false, configs[0]);
  for (const auto& comm : configs) {
    for (int threads : {1, 2, 4}) {
      EXPECT_EQ(baseline, run_nsu3d_partitioned(lvl, u, inf, part, threads,
                                                true, comm))
          << "threads " << threads << " strat "
          << core::strategy_id(comm.strategy);
      FaultGuard faults("seed=21,halo_corrupt=0.3,halo_drop=0.3");
      EXPECT_EQ(baseline, run_nsu3d_partitioned(lvl, u, inf, part, threads,
                                                true, comm))
          << "faulted, threads " << threads;
    }
  }
}

// The residual spans double as a ledger of residual evaluations: a cycle
// makes exactly the closed-form count below, which is how the solvers'
// reuse of an unchanged state's residual is pinned.

/// Begin events of span `name` recorded since the last reset_trace().
std::size_t span_count(const char* name) {
  std::size_t n = 0;
  for (const obs::TraceEvent& e : obs::trace_snapshot())
    if (e.phase == 'B' && std::strcmp(e.name, name) == 0) ++n;
  return n;
}

/// Residual evaluations in one cycle, from the driver's level walk
/// (core::cycle_visits). Each visit smooths `p.smooth_steps` steps of
/// `per_step` residuals; each visit above the coarsest restricts (a fine
/// and a coarse residual) and post-smooths; the cycle ends with the fine
/// residual norm. Two of those are reused, not recomputed: the norm's
/// residual by the next cycle's first fine step, and each restriction's
/// coarse residual by the coarse level's next first step.
std::size_t residuals_per_cycle(const core::SolveParams& p, int per_step) {
  const std::vector<index_t> visits = core::cycle_visits(p.mg_levels, p.cycle);
  std::size_t computed = 1, restrictions = 0;
  for (int l = 0; l < p.mg_levels; ++l) {
    const std::size_t v = std::size_t(visits[std::size_t(l)]);
    computed += v * std::size_t(p.smooth_steps * per_step);
    if (l + 1 < p.mg_levels) {
      computed += v * std::size_t(2 + p.post_smooth_steps * per_step);
      restrictions += v;
    }
  }
  return computed - 1 - restrictions;
}

template <class Solver>
std::size_t residual_spans_per_cycle(Solver& s, const char* span) {
  constexpr int kCycles = 3;
  s.residual_norm();
  obs::reset_trace();
  for (int c = 0; c < kCycles; ++c) s.run_cycle();
  const std::size_t n = span_count(span);
  EXPECT_EQ(n % kCycles, 0u) << "cycles differ in residual count";
  return n / kCycles;
}

TEST(ResidualReuse, Nsu3dSpansMatchClosedForm) {
  const auto m = small_wing();
  euler::FlowConditions fc;
  fc.mach = 0.75;
  fc.reynolds = 3e6;
  for (const core::CycleType cycle : {core::CycleType::W, core::CycleType::V}) {
    Guard guard;
    obs::set_enabled(true);
    nsu3d::Nsu3dOptions o;
    o.mg_levels = 3;
    o.cycle = cycle;
    nsu3d::Nsu3dSolver s(m, fc, o);
    // 3-level W-cycle: visits 1, 2, 2 -> 15 evaluations, 4 of them reused.
    EXPECT_EQ(residual_spans_per_cycle(s, "nsu3d.residual"),
              residuals_per_cycle(o, 1));
  }
}

TEST(ResidualReuse, Cart3dSpansMatchClosedForm) {
  const auto m = small_sphere_mesh();
  euler::FlowConditions fc;
  fc.mach = 0.3;
  fc.alpha_deg = 2.0;
  for (const int levels : {1, 2}) {
    Guard guard;
    obs::set_enabled(true);
    cart3d::SolverOptions o;
    o.mg_levels = levels;
    cart3d::Cart3DSolver s(m, fc, o);
    // Three RK stages per smoothing step. Single grid: 7 evaluations per
    // cycle, 1 reused.
    EXPECT_EQ(residual_spans_per_cycle(s, "cart3d.residual"),
              residuals_per_cycle(o, 3))
        << levels << " levels";
  }
}

}  // namespace
}  // namespace columbia
