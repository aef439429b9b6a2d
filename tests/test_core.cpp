// The shared solver-runtime core: persistent ExchangePlans must meet the
// halo specification of tests/halo_oracle.hpp (every ghost equals its
// owner's value bit for bit, fault-free traffic equals the closed form)
// for both strategies, with halo fault injection on or off, and stay
// allocation-free in steady state; the unified cycle bookkeeping must
// reproduce the solvers' historical visit counts.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>

#include "cart3d/partitioned.hpp"
#include "cart3d/solver.hpp"
#include "core/exchange_plan.hpp"
#include "core/params.hpp"
#include "geom/components.hpp"
#include "halo_oracle.hpp"
#include "mesh/builders.hpp"
#include "nsu3d/partitioned.hpp"
#include "nsu3d/solver.hpp"
#include "obs/obs.hpp"
#include "perf/loads.hpp"
#include "resil/faults.hpp"
#include "smp/pool.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter: replaces operator new/delete for this binary so
// the zero-steady-state-allocation contract of ExchangePlan::exchange is a
// hard assertion, not a benchmark-only observation.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  void* p = std::malloc(n ? n : 1);
  if (!p) throw std::bad_alloc();
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  void* p = std::aligned_alloc(std::size_t(al),
                               (n + std::size_t(al) - 1) &
                                   ~(std::size_t(al) - 1));
  if (!p) throw std::bad_alloc();
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
// The nothrow forms too (std::stable_sort's temporary buffer uses them):
// left to the runtime, they would hand our free()-based deletes memory from
// another allocator, which AddressSanitizer rejects as a mismatch.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return ::operator new(n, tag);
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  try {
    return ::operator new(n, al);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t& tag) noexcept {
  return ::operator new(n, al, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
// ---------------------------------------------------------------------------

namespace columbia::core {
namespace {

struct InjectorGuard {
  explicit InjectorGuard(const std::string& spec) {
    resil::FaultInjector::global().configure(resil::parse_fault_spec(spec));
  }
  ~InjectorGuard() { resil::FaultInjector::global().reset(); }
};

using halo_oracle::expected;
using halo_oracle::expected_traffic;
using halo_oracle::make_scenario;
using halo_oracle::Scenario;

/// Thread-to-thread plus master-thread at every tpp in {1, 2, 3, 4, 8}
/// that divides the partition count.
std::vector<ExchangePlanOptions> strategy_sweep(index_t nparts) {
  std::vector<ExchangePlanOptions> out = {{ExchangeStrategy::ThreadToThread}};
  for (int tpp : {1, 2, 3, 4, 8})
    if (nparts % tpp == 0) out.push_back({ExchangeStrategy::MasterThread, tpp});
  return out;
}

std::string describe(const ExchangePlanOptions& opt) {
  return opt.strategy == ExchangeStrategy::ThreadToThread
             ? std::string("thread-to-thread")
             : "master-thread tpp " + std::to_string(opt.threads_per_process);
}

/// Fault-injection inputs: an 8-partition scenario and a 12-partition one,
/// so the sweep covers master-thread at tpp 1, 2, 3, 4 and 8. The seed-21
/// input of the HaloFaults suite (test_resil) is a third.
std::vector<Scenario> fault_scenarios(std::uint64_t seed) {
  return {make_scenario(8, 20, 15, seed), make_scenario(12, 30, 25, 3)};
}

/// Overwrites the first items of every partition with values that only a
/// bitwise comparison tells apart: -0.0 (equals +0.0), a NaN carrying a
/// payload (equals nothing), the smallest denormal and -inf.
Scenario with_special_values(Scenario s) {
  const real_t special[] = {-0.0,
                            std::bit_cast<real_t>(0x7ff8'0000'0000'1234ull),
                            std::numeric_limits<real_t>::denorm_min(),
                            -std::numeric_limits<real_t>::infinity()};
  for (auto& d : s.data)
    for (std::size_t k = 0; k < std::size(special) && k < d.size(); ++k)
      d[k] = special[k];
  return s;
}

/// Bit patterns of every value, parallel to the partition data.
std::vector<std::vector<std::uint64_t>> bits(const PartitionData& d) {
  std::vector<std::vector<std::uint64_t>> out(d.size());
  for (std::size_t p = 0; p < d.size(); ++p)
    for (real_t v : d[p]) out[p].push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

TEST(ExchangePlan, ThreadToThreadMatchesLegacyBitwise) {
  const Scenario s = with_special_values(make_scenario(8, 20, 15, 1));
  ExchangePlan plan(s.requests);
  EXPECT_EQ(bits(plan.exchange(s.data)), bits(expected(s)));
}

TEST(ExchangePlan, MasterThreadMatchesLegacyBitwise) {
  const Scenario s = with_special_values(make_scenario(8, 20, 15, 2));
  for (int tpp : {1, 2, 4, 8}) {
    ExchangePlan plan(s.requests, {ExchangeStrategy::MasterThread, tpp});
    EXPECT_EQ(bits(plan.exchange(s.data)), bits(expected(s)))
        << tpp << " threads per process";
  }
}

TEST(ExchangePlan, RepeatedExchangesTrackChangingData) {
  Scenario s = make_scenario(6, 12, 10, 3);
  ExchangePlan plan(s.requests);
  for (int round = 0; round < 5; ++round) {
    EXPECT_EQ(plan.exchange(s.data), expected(s)) << "round " << round;
    for (auto& d : s.data)
      for (auto& v : d) v += 0.25 * real_t(round + 1);
  }
  EXPECT_EQ(plan.stats().exchanges, 5u);
}

TEST(ExchangePlan, FaultFreeTrafficMatchesLegacyCounters) {
  // Hand-counted input: partition 0 asks partition 1 twice (duplicates
  // count) and partition 2 once; partition 1 asks 0; partition 2 asks
  // itself. Thread-to-thread: messages 1->0 (2 values), 2->0 and 0->1
  // (1 value each). Two partitions per process: only 1->0 (process 1 to
  // process 0, 1 value) crosses a process boundary.
  Scenario hand = make_scenario(4, 4, 0, 9);
  hand.requests[0] = {{1, 0}, {1, 0}, {2, 3}};
  hand.requests[1] = {{0, 1}};
  hand.requests[2] = {{2, 2}};
  const halo_oracle::Traffic t2t = expected_traffic(hand.requests, 1);
  EXPECT_EQ(t2t.messages, 3u);
  EXPECT_EQ(t2t.bytes, (4 + 3 + 3) * sizeof(real_t));
  const halo_oracle::Traffic paired = expected_traffic(hand.requests, 2);
  EXPECT_EQ(paired.messages, 1u);
  EXPECT_EQ(paired.bytes, 3 * sizeof(real_t));

  // The intra-process, single-partition and Fig. 7b inputs are the
  // HybridComm suite's (test_hybrid_comm).
  for (const Scenario& s :
       {hand, make_scenario(10, 25, 20, 4), make_scenario(12, 30, 25, 3)}) {
    for (const ExchangePlanOptions& opt :
         strategy_sweep(index_t(s.data.size()))) {
      const halo_oracle::Traffic want =
          expected_traffic(s.requests, index_t(opt.threads_per_process));
      ExchangePlan plan(s.requests, opt);
      EXPECT_EQ(plan.exchange(s.data), expected(s)) << describe(opt);
      EXPECT_EQ(plan.stats().messages, want.messages) << describe(opt);
      EXPECT_EQ(plan.stats().bytes, want.bytes) << describe(opt);
      EXPECT_EQ(plan.messages_per_exchange(), want.messages) << describe(opt);
      EXPECT_EQ(plan.payload_bytes_per_exchange(),
                want.bytes - 2 * sizeof(real_t) * want.messages)
          << describe(opt);
    }
  }
}

TEST(ExchangePlan, BitIdenticalUnderHaloCorruption) {
  InjectorGuard faults("seed=5,halo_corrupt=0.5");
  for (const Scenario& s : fault_scenarios(5)) {
    const PartitionData want = expected(s);
    std::uint64_t retransmits = 0;
    for (const ExchangePlanOptions& opt :
         strategy_sweep(index_t(s.data.size()))) {
      ExchangePlan plan(s.requests, opt);
      for (int round = 0; round < 4; ++round)
        EXPECT_EQ(plan.exchange(s.data), want)
            << describe(opt) << " round " << round;
      EXPECT_EQ(plan.stats().rejected, plan.stats().retransmits);
      retransmits += plan.stats().retransmits;
    }
    EXPECT_GT(retransmits, 0u) << s.data.size() << " partitions";
  }
  EXPECT_GT(resil::FaultInjector::global().injected(
                resil::FaultKind::HaloCorrupt),
            0u);
}

TEST(ExchangePlan, BitIdenticalUnderHaloDrops) {
  constexpr int kRounds = 4;
  struct Drops {
    const char* spec;
    bool every_attempt;
  };
  for (const Drops drops : {Drops{"seed=3,halo_drop=0.5", false},
                            Drops{"seed=3,halo_drop=1", true}}) {
    InjectorGuard faults(drops.spec);
    for (const Scenario& s : fault_scenarios(6)) {
      const PartitionData want = expected(s);
      std::uint64_t retransmits = 0;
      for (const ExchangePlanOptions& opt :
           strategy_sweep(index_t(s.data.size()))) {
        ExchangePlan plan(s.requests, opt);
        for (int round = 0; round < kRounds; ++round)
          EXPECT_EQ(plan.exchange(s.data), want)
              << drops.spec << ", " << describe(opt) << " round " << round;
        retransmits += plan.stats().retransmits;
        if (drops.every_attempt) {
          // Every attempt the injector may touch is dropped, so each
          // message runs into the attempt cap: three dropped frames, then
          // the guaranteed-clean fourth.
          const std::uint64_t sends = kRounds * plan.messages_per_exchange();
          EXPECT_EQ(plan.stats().messages, 4 * sends) << describe(opt);
          EXPECT_EQ(plan.stats().retransmits, 3 * sends) << describe(opt);
        }
      }
      EXPECT_GT(retransmits, 0u)
          << drops.spec << ", " << s.data.size() << " partitions";
    }
    EXPECT_GT(
        resil::FaultInjector::global().injected(resil::FaultKind::HaloDrop),
        0u);
  }
}

TEST(ExchangePlan, SteadyStateExchangePerformsZeroAllocations) {
  Scenario s = make_scenario(12, 30, 25, 7);
  // Level-tagged plans take the exact same hot path as untagged ones; the
  // halo.xchg span guards they carry must cost zero allocations while
  // observability is disabled (the default), which is the state this test
  // runs in.
  ExchangePlan t2t(s.requests, {ExchangeStrategy::ThreadToThread, 1, 0});
  ExchangePlan master(s.requests, {ExchangeStrategy::MasterThread, 3, 1});
  // Warm-up: first exchange may touch lazily-created observability
  // registries; everything after it must be allocation-free.
  t2t.exchange(s.data);
  master.exchange(s.data);

  const std::uint64_t before = g_alloc_count.load();
  for (int round = 0; round < 8; ++round) {
    t2t.exchange(s.data);
    master.exchange(s.data);
    for (auto& d : s.data)
      for (auto& v : d) v *= 1.0 + 1e-6;
  }
  EXPECT_EQ(g_alloc_count.load() - before, 0u)
      << "ExchangePlan::exchange allocated on the steady-state path";

  // The split overlap entry points are the same machinery under the same
  // contract: post() + interior compute + finish() must stay
  // allocation-free in steady state too.
  const std::uint64_t split_before = g_alloc_count.load();
  for (int round = 0; round < 8; ++round) {
    t2t.post(s.data);
    master.post(s.data);
    for (auto& d : s.data)
      for (auto& v : d) v *= 1.0 + 1e-6;  // overlapped "interior compute"
    t2t.finish();
    master.finish();
  }
  EXPECT_EQ(g_alloc_count.load() - split_before, 0u)
      << "ExchangePlan::post/finish allocated on the steady-state path";
}

TEST(SteadyState, AllocationCounterCountsNothrowForms) {
  const std::uint64_t before = g_alloc_count.load();
  void* a = ::operator new(16, std::nothrow);
  void* b = ::operator new[](16, std::nothrow);
  void* c = ::operator new(64, std::align_val_t(64), std::nothrow);
  void* d = ::operator new[](64, std::align_val_t(64), std::nothrow);
  EXPECT_EQ(g_alloc_count.load() - before, 4u);
  ::operator delete(a, std::nothrow);
  ::operator delete[](b, std::nothrow);
  ::operator delete(c, std::align_val_t(64), std::nothrow);
  ::operator delete[](d, std::align_val_t(64), std::nothrow);
}

/// Heap allocations made by two steady-state cycles of `s`, after one
/// warm-up cycle has grown every workspace.
template <class Solver>
std::uint64_t steady_cycle_allocations(Solver& s) {
  s.residual_norm();
  s.run_cycle();
  const std::uint64_t before = g_alloc_count.load();
  s.run_cycle();
  s.run_cycle();
  return g_alloc_count.load() - before;
}

// The solvers' cycles keep the same contract: workspaces and line-solve
// scratch keep their capacity, the pool binds range functions by
// reference and reuses its reduction partials.
TEST(SteadyState, SolverCyclesPerformZeroAllocations) {
  mesh::WingMeshSpec spec;
  spec.n_wrap = 24;
  spec.n_span = 3;
  spec.n_normal = 10;
  spec.wall_spacing = 1e-4;
  const mesh::UnstructuredMesh wing = mesh::make_wing_mesh(spec);
  euler::FlowConditions wing_fc;
  wing_fc.mach = 0.75;
  wing_fc.reynolds = 3e6;
  nsu3d::Nsu3dOptions no;
  no.mg_levels = 3;

  geom::Aabb domain;
  domain.expand({-1.5, -1.5, -1.5});
  domain.expand({1.5, 1.5, 1.5});
  cartesian::CartMeshOptions mo;
  mo.base_n = 8;
  mo.max_level = 1;
  const cartesian::CartMesh box = cartesian::build_cart_mesh(
      geom::make_sphere({0, 0, 0}, 0.4, 12, 24), domain, mo);
  euler::FlowConditions box_fc;
  box_fc.mach = 0.3;
  cart3d::SolverOptions co;
  co.mg_levels = 2;

  for (const int threads : {1, 4}) {
    smp::set_global_threads(threads);
    nsu3d::Nsu3dSolver ns(wing, wing_fc, no);
    EXPECT_EQ(steady_cycle_allocations(ns), 0u)
        << "nsu3d run_cycle allocated at " << threads << " threads";
    cart3d::Cart3DSolver cs(box, box_fc, co);
    EXPECT_EQ(steady_cycle_allocations(cs), 0u)
        << "cart3d run_cycle allocated at " << threads << " threads";
  }
  smp::set_global_threads(1);
}

// A trace is often written after the solver that recorded it is gone (a
// forked rank's final shard, the threads backend's trace): the driver's
// span names must outlive it. Under ASan a dangling name is a
// heap-use-after-free here.
TEST(CycleRecords, SpanNamesOutliveTheSolver) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  mesh::WingMeshSpec spec;
  spec.n_wrap = 24;
  spec.n_span = 3;
  spec.n_normal = 10;
  spec.wall_spacing = 1e-4;
  const mesh::UnstructuredMesh wing = mesh::make_wing_mesh(spec);
  euler::FlowConditions fc;
  fc.mach = 0.75;
  nsu3d::Nsu3dOptions o;
  o.mg_levels = 2;
  obs::reset_trace();
  obs::set_enabled(true);
  {
    nsu3d::Nsu3dSolver s(wing, fc, o);
    s.run_cycle();
  }
  obs::set_enabled(false);
  std::size_t cycles = 0, levels = 0;
  for (const obs::TraceEvent& e : obs::trace_snapshot()) {
    if (e.phase != 'B') continue;
    if (std::string(e.name) == "nsu3d.cycle") ++cycles;
    if (std::string(e.name) == "nsu3d.level") ++levels;
  }
  EXPECT_EQ(cycles, 1u);
  EXPECT_EQ(levels, 2u);
  ASSERT_EQ(obs::cycle_records().size(), 1u);
  EXPECT_EQ(obs::cycle_records()[0].solver, "nsu3d");
  obs::reset_trace();
  obs::reset_metrics();
}

TEST(ExchangePlan, ScheduleStatisticsMatchRequestLists) {
  const Scenario s = make_scenario(6, 15, 12, 8);
  ExchangePlan plan(s.requests);
  index_t max_ghost = 0, total_ghost = 0, max_nbrs = 0;
  for (index_t p = 0; p < 6; ++p) {
    index_t ghosts = 0;
    std::set<index_t> owners;
    for (const HaloRequest& r : s.requests[std::size_t(p)])
      if (r.from_partition != p) {
        ++ghosts;
        owners.insert(r.from_partition);
      }
    EXPECT_EQ(plan.ghost_items(p), ghosts);
    EXPECT_EQ(plan.neighbor_count(p), index_t(owners.size()));
    max_ghost = std::max(max_ghost, ghosts);
    total_ghost += ghosts;
    max_nbrs = std::max(max_nbrs, index_t(owners.size()));
  }
  EXPECT_EQ(plan.max_ghost_items(), max_ghost);
  EXPECT_EQ(plan.total_ghost_items(), total_ghost);
  EXPECT_EQ(plan.max_neighbors(), max_nbrs);

  const perf::MeasuredStats st = perf::stats_from_plan(plan);
  EXPECT_EQ(st.max_halo_items, real_t(max_ghost));
  EXPECT_EQ(st.comm_neighbors, max_nbrs);
}

TEST(CycleVisits, MatchesLegacyRecursionForBothCycleTypes) {
  const auto w4 = cycle_visits(4, CycleType::W);
  EXPECT_EQ(w4, (std::vector<index_t>{1, 2, 4, 4}));
  const auto v4 = cycle_visits(4, CycleType::V);
  EXPECT_EQ(v4, (std::vector<index_t>{1, 1, 1, 1}));
}

// --- Solver consumers: both decompositions run the same plan type. ---

TEST(PlanConsumers, Nsu3dParallelResidualAgreesAcrossStrategies) {
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
  const auto t2t = nsu3d::parallel_residual(lvl, u, inf, part, 4);
  // The transport strategy must not change a single bit of the result.
  const auto master = nsu3d::parallel_residual(
      lvl, u, inf, part, 4, {ExchangeStrategy::MasterThread, 2});
  EXPECT_EQ(t2t, master);

  // Neither may fault injection on the halo frames.
  InjectorGuard faults("seed=7,halo_corrupt=0.3,halo_drop=0.3");
  const auto faulted = nsu3d::parallel_residual(
      lvl, u, inf, part, 4, {ExchangeStrategy::MasterThread, 2});
  EXPECT_EQ(t2t, faulted);
}

TEST(PlanConsumers, Cart3dParallelResidualMatchesSinglePartition) {
  const auto sphere = geom::make_sphere({0, 0, 0}, 0.4, 16, 32);
  geom::Aabb dom;
  dom.expand({-1.5, -1.5, -1.5});
  dom.expand({1.5, 1.5, 1.5});
  cartesian::CartMeshOptions mopt;
  mopt.base_n = 8;
  mopt.max_level = 2;
  const cartesian::CartMesh m = cartesian::build_cart_mesh(sphere, dom, mopt);

  euler::FlowConditions fc;
  fc.mach = 0.5;
  fc.alpha_deg = 2.0;
  const euler::Prim inf = fc.freestream();
  std::vector<euler::Cons> u(m.cells.size());
  for (std::size_t i = 0; i < m.cells.size(); ++i) {
    euler::Prim w = inf;
    const geom::Vec3 x = m.cell_center(m.cells[i]);
    w.rho *= 1.0 + 0.04 * std::sin(1.3 * x.x + 0.5 * x.y);
    w.p *= 1.0 + 0.04 * std::cos(0.9 * x.z);
    u[i] = euler::to_conservative(w);
  }

  const auto part = cartesian::partition_cells(m, 4);
  const auto par = cart3d::parallel_residual(m, u, inf, part, 4);
  const std::vector<index_t> one(m.cells.size(), 0);
  const auto ser = cart3d::parallel_residual(m, u, inf, one, 1);
  ASSERT_EQ(par.size(), ser.size());
  real_t scale = 0;
  for (const auto& r : ser)
    for (real_t x : r) scale = std::max(scale, std::abs(x));
  for (std::size_t i = 0; i < par.size(); ++i)
    for (int c = 0; c < 5; ++c)
      EXPECT_NEAR(par[i][std::size_t(c)], ser[i][std::size_t(c)],
                  1e-10 * scale)
          << "cell " << i << " comp " << c;

  // Strategy- and fault-independence are exact, as for NSU3D.
  const auto master = cart3d::parallel_residual(
      m, u, inf, part, 4, euler::FluxScheme::Roe,
      {ExchangeStrategy::MasterThread, 2});
  EXPECT_EQ(par, master);
  InjectorGuard faults("seed=9,halo_corrupt=0.3,halo_drop=0.3");
  const auto faulted = cart3d::parallel_residual(m, u, inf, part, 4);
  EXPECT_EQ(par, faulted);
}

}  // namespace
}  // namespace columbia::core
