// The shared solver-runtime core: persistent ExchangePlans must meet the
// halo specification of tests/halo_oracle.hpp (every ghost equals its
// owner's value bit for bit, fault-free traffic equals the closed form)
// for both strategies, with halo fault injection on or off, and stay
// allocation-free in steady state; the unified cycle bookkeeping must
// reproduce the solvers' historical visit counts; the FAS layer must do on
// a toy physics exactly what its contract says; and each solve's cycle
// records and recovery counters must survive the written trace.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <new>
#include <sstream>
#include <string>
#include <thread>

#include "cart3d/partitioned.hpp"
#include "cart3d/solver.hpp"
#include "core/exchange_plan.hpp"
#include "core/multigrid.hpp"
#include "core/params.hpp"
#include "geom/components.hpp"
#include "halo_oracle.hpp"
#include "mesh/builders.hpp"
#include "nsu3d/partitioned.hpp"
#include "nsu3d/solver.hpp"
#include "obs/json_parse.hpp"
#include "obs/obs.hpp"
#include "obs/report_cli.hpp"
#include "obs/shard.hpp"
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

// --- The shared FAS layer, on a toy two-level physics ----------------------
//
// Four fine entries with volumes {1, 3, 2, 0} map onto three coarse ones:
// fine 0,1 -> coarse 0, fine 2,3 -> coarse 1, nothing -> coarse 2. The
// residual is the state itself, fine smoothing does nothing, and coarse
// smoothing adds a fixed step per entry, so one cycle's restriction,
// forcing, prolongation and norm can be written down by hand.

using Toy2 = std::array<real_t, 2>;

class ToyPhysics : public MultigridDriver<ToyPhysics, 2> {
 public:
  ToyPhysics() : MultigridDriver("toy") {
    params_.mg_levels = 2;
    init_levels(2, kFarField);
  }
  static constexpr Toy2 kFarField{1, 2};
  /// Added to each coarse entry by every coarse smoothing step; coarse 1's
  /// step drives its children's first component negative (invalid).
  static constexpr std::array<Toy2, 3> kCoarseStep{
      {{0.5, 1}, {-10, 0}, {7, 7}}};

  const std::vector<Toy2>& forcing(int l) const {
    return forcing_[std::size_t(l)];
  }

  static constexpr std::size_t kGrain = 2;
  static bool state_valid(const Toy2& u) { return u[0] > 0; }
  const SolveParams& solve_params() const { return params_; }
  std::size_t level_size(int l) const { return l == 0 ? 4 : 3; }
  std::span<const index_t> to_coarse(int) const { return map_; }
  /// Only the fine level's volumes are read: restriction out of level 0
  /// and the norm.
  std::span<const real_t> control_volume(int) { return fine_vol_; }
  void compute_residual(int l, const std::vector<Toy2>& u,
                        std::vector<Toy2>& res, bool) {
    res = u;
    fresh_[std::size_t(l)] = false;
  }
  void smooth(int l, int steps) {
    if (l == 0) return;
    for (int s = 0; s < steps; ++s)
      for (std::size_t j = 0; j < 3; ++j)
        for (std::size_t k = 0; k < 2; ++k) state_[1][j][k] += kCoarseStep[j][k];
    fresh_[1] = false;
  }
  void project(int, std::vector<Toy2>&) const {}
  void apply_backoff(const resil::GuardOptions&) {}
  struct Forces {
    real_t cl = 0, cd = 0;
  };
  Forces integrate_forces() const { return {}; }

 private:
  SolveParams params_;
  std::vector<index_t> map_{0, 0, 1, 1};
  std::vector<real_t> fine_vol_{1, 3, 2, 0};
};

/// A checkpoint of `toy` holding `fine` as its fine-grid state.
resil::Checkpoint toy_state(const ToyPhysics& toy,
                            const std::vector<Toy2>& fine) {
  resil::Checkpoint c = toy.make_checkpoint(0, {});
  c.state.clear();
  for (const Toy2& u : fine) c.state.insert(c.state.end(), u.begin(), u.end());
  return c;
}

const std::vector<Toy2> kToyFine{{1, 10}, {3, 20}, {2, 30}, {5, 40}};

TEST(FasLayer, StartsEveryLevelAtTheFarFieldState) {
  ToyPhysics toy;
  ASSERT_EQ(toy.num_levels(), 2);
  for (int l = 0; l < 2; ++l)
    for (const Toy2& u : toy.solution(l)) EXPECT_EQ(u, ToyPhysics::kFarField);
  EXPECT_EQ(toy.solution(0).size(), 4u);
  EXPECT_EQ(toy.solution(1).size(), 3u);
}

TEST(FasLayer, RestrictionIsTheVolumeWeightedMeanWithFarFieldForEmpty) {
  ToyPhysics toy;
  toy.restore_checkpoint(toy_state(toy, kToyFine));
  toy.run_cycle();
  // The coarse state after the visit is the restriction plus one step.
  const std::vector<Toy2>& uc = toy.solution(1);
  const auto& step = ToyPhysics::kCoarseStep;
  EXPECT_EQ(uc[0][0], (1.0 * 1 + 3.0 * 3) / 4 + step[0][0]);
  EXPECT_EQ(uc[0][1], (1.0 * 10 + 3.0 * 20) / 4 + step[0][1]);
  // Fine 3 has no volume, so coarse 1 is fine 2's state alone.
  EXPECT_EQ(uc[1][0], 2.0 + step[1][0]);
  EXPECT_EQ(uc[1][1], 30.0 + step[1][1]);
  // Coarse 2 gathers no volume: it takes the far-field state.
  EXPECT_EQ(uc[2][0], ToyPhysics::kFarField[0] + step[2][0]);
  EXPECT_EQ(uc[2][1], ToyPhysics::kFarField[1] + step[2][1]);
}

TEST(FasLayer, CoarseForcingIsRestrictedResidualMinusTransferredResidual) {
  ToyPhysics toy;
  toy.restore_checkpoint(toy_state(toy, kToyFine));
  toy.run_cycle();
  // f_c = R_c(I u) - I(R_f(u) - f_f) with R(u) = u and f_f = 0.
  const std::vector<Toy2>& fc = toy.forcing(1);
  EXPECT_EQ(fc[0], (Toy2{2.5 - (1 + 3), 17.5 - (10 + 20)}));
  EXPECT_EQ(fc[1], (Toy2{2 - (2 + 5), 30 - (30 + 40)}));
  EXPECT_EQ(fc[2], ToyPhysics::kFarField);
  for (const Toy2& f : toy.forcing(0)) EXPECT_EQ(f, (Toy2{0, 0}));
}

TEST(FasLayer, ProlongationAddsDampedCorrectionAndKeepsInvalidEntries) {
  ToyPhysics toy;
  toy.restore_checkpoint(toy_state(toy, kToyFine));
  toy.run_cycle();
  const real_t damping = SolveParams{}.correction_damping;
  const auto& step = ToyPhysics::kCoarseStep;
  const std::vector<Toy2>& uf = toy.solution(0);
  // Fine 0 and 1 take damping x (coarse - snapshot) of coarse 0.
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t k = 0; k < 2; ++k) {
      const real_t snap = k == 0 ? 2.5 : 17.5;
      EXPECT_EQ(uf[i][k],
                kToyFine[i][k] + damping * ((snap + step[0][k]) - snap))
          << "fine " << i << " component " << k;
    }
  // Coarse 1's correction would make fine 2 and 3 invalid: both keep
  // their state.
  EXPECT_EQ(uf[2], kToyFine[2]);
  EXPECT_EQ(uf[3], kToyFine[3]);
}

TEST(FasLayer, NormAveragesOverPositiveVolumeEntries) {
  ToyPhysics toy;
  toy.restore_checkpoint(toy_state(toy, kToyFine));
  // R = u; the volume-0 entry (fine 3) counts neither in the sum nor in
  // the denominator.
  const real_t a = 1.0 / 1, b = 3.0 / 3, c = 2.0 / 2;
  EXPECT_DOUBLE_EQ(toy.residual_norm(), std::sqrt((a * a + b * b + c * c) / 3));
}

TEST(FasLayer, MismatchedCheckpointIsRejectedAndChangesNothing) {
  ToyPhysics toy;
  toy.restore_checkpoint(toy_state(toy, kToyFine));
  const std::vector<Toy2> before = toy.solution();
  auto rejection = [&](const resil::Checkpoint& c) -> std::string {
    try {
      toy.restore_checkpoint(c);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "accepted";
  };
  resil::Checkpoint wrong_tag = toy_state(toy, {{9, 9}, {9, 9}, {9, 9}, {9, 9}});
  wrong_tag.solver = "cart3d";
  EXPECT_EQ(rejection(wrong_tag),
            "checkpoint solver mismatch: got 'cart3d', expected 'toy'");
  resil::Checkpoint short_state = toy_state(toy, {{9, 9}, {9, 9}, {9, 9}});
  EXPECT_EQ(rejection(short_state), "checkpoint state size mismatch for toy grid");
  resil::Checkpoint wrong_stride = toy_state(toy, kToyFine);
  wrong_stride.state_stride = 4;
  EXPECT_EQ(rejection(wrong_stride),
            "checkpoint state size mismatch for toy grid");
  EXPECT_EQ(toy.solution(), before);
}

// --- Cycle records in the trace ---------------------------------------------

mesh::UnstructuredMesh record_wing() {
  mesh::WingMeshSpec spec;
  spec.n_wrap = 24;
  spec.n_span = 3;
  spec.n_normal = 10;
  spec.wall_spacing = 1e-4;
  return mesh::make_wing_mesh(spec);
}

/// The merged trace of this process's recording, written and read back.
obs::MergedTelemetry traced_round_trip(const std::string& path) {
  EXPECT_TRUE(obs::write_trace(path, {obs::live_shard()}));
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  obs::JsonValue doc;
  EXPECT_TRUE(obs::parse_json(ss.str(), doc));
  obs::MergedTelemetry m;
  EXPECT_TRUE(obs::parse_merged_trace(doc, m));
  return m;
}

// Solves that record at the same time (ranks of an in-process group,
// database cases side by side) must stay separate series: each record
// carries its solve's id, and the report rolls up one series per id.
TEST(CycleRecords, SimultaneousSolvesRollUpSeparately) {
  const mesh::UnstructuredMesh wing = record_wing();
  euler::FlowConditions fc;
  fc.mach = 0.75;
  nsu3d::Nsu3dOptions o;
  o.mg_levels = 2;
  constexpr int kCycles = 4;
  obs::reset_trace();
  obs::set_enabled(true);
  {
    std::vector<std::thread> solves;
    for (int t = 0; t < 2; ++t)
      solves.emplace_back([&] {
        nsu3d::Nsu3dSolver s(wing, fc, o);
        s.solve(kCycles, 12);
      });
    for (std::thread& t : solves) t.join();
  }
  obs::set_enabled(false);
  const std::string path = testing::TempDir() + "core_two_solves.json";
  const obs::MergedTelemetry m = traced_round_trip(path);
  ASSERT_EQ(m.shards.size(), 1u);
  std::map<std::uint64_t, std::vector<int>> cycles;
  for (const obs::CycleRecord& rec : m.shards[0].conv)
    cycles[rec.solve_id].push_back(rec.cycle);
  ASSERT_EQ(cycles.size(), 2u);
  for (const auto& [id, series] : cycles) {
    EXPECT_NE(id, 0u);
    EXPECT_EQ(series, (std::vector<int>{1, 2, 3, 4})) << "solve " << id;
  }

  std::ostringstream out, err;
  ASSERT_EQ(obs::report::run({path}, out, err), obs::report::kOk) << err.str();
  std::size_t rollups = 0;
  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);)
    if (line.rfind("== convergence:", 0) == 0) {
      ++rollups;
      EXPECT_NE(line.find("(4 cycles) =="), std::string::npos) << line;
    }
  EXPECT_EQ(rollups, 2u);
  std::remove(path.c_str());
  obs::reset_trace();
  obs::reset_metrics();
}

// The recovery counters of a traced guarded solve survive the merged
// trace, so the report can print them.
TEST(TraceMetrics, GuardedRollbacksSurviveTheMergedTrace) {
  const mesh::UnstructuredMesh wing = record_wing();
  euler::FlowConditions fc;
  fc.mach = 0.75;
  fc.alpha_deg = 2.0;
  fc.reynolds = 3e6;
  nsu3d::Nsu3dOptions o;
  o.mg_levels = 3;
  obs::reset_trace();
  obs::reset_metrics();
  obs::set_enabled(true);
  resil::FaultInjector::global().configure(
      resil::parse_fault_spec("seed=42,state_nan=0.2@2"));
  resil::GuardedSolveResult gr;
  {
    nsu3d::Nsu3dSolver s(wing, fc, o);
    gr = s.solve_guarded(20, 12);
  }
  resil::FaultInjector::global().reset();
  obs::set_enabled(false);
  ASSERT_GE(gr.rollbacks, 1);
  const std::string path = testing::TempDir() + "core_guarded_metrics.json";
  const obs::MergedTelemetry m = traced_round_trip(path);
  ASSERT_EQ(m.shards.size(), 1u);
  const auto& counters = m.shards[0].metrics.counters;
  const auto it = counters.find("resil.recover.rollback");
  ASSERT_NE(it, counters.end());
  EXPECT_EQ(it->second, std::uint64_t(gr.rollbacks));

  std::ostringstream out, err;
  ASSERT_EQ(obs::report::run({path}, out, err), obs::report::kOk) << err.str();
  EXPECT_NE(out.str().find("== recovery counters: " + path + " =="),
            std::string::npos)
      << out.str();
  std::remove(path.c_str());
  obs::reset_trace();
  obs::reset_metrics();
}

// A trace is often written after the solver that recorded it is gone (a
// forked rank's final shard, the threads backend's trace): the driver's
// span names must outlive it. Under ASan a dangling name is a
// heap-use-after-free here.
TEST(CycleRecords, SpanNamesOutliveTheSolver) {
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
  index_t max_ghost = 0, max_nbrs = 0;
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
    max_nbrs = std::max(max_nbrs, index_t(owners.size()));
  }
  EXPECT_EQ(plan.max_ghost_items(), max_ghost);
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
