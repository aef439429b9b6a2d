// The interior/halo split invariant (DESIGN.md): ExchangePlan::post() +
// finish() must be bit-identical to the blocking exchange() — same values,
// same wire accounting — and the solvers' overlap=true residual paths must
// reproduce the overlap=false results bit-for-bit at every thread count,
// under both Fig. 7 strategies, over every wire backend, with fault
// injection on or off. Coarse-level rank agglomeration (active_members)
// must likewise leave the delivered halo values untouched: parked members
// fill their replicated schedule by local validation and agree bitwise
// with the full-rank run.
//
// Everything here is fork-free (loopback Group(1) endpoints and two-thread
// LocalGroup members), so unlike test_transport this suite runs under the
// tsan and asan sanitizer configurations.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cart3d/partitioned.hpp"
#include "core/exchange_plan.hpp"
#include "core/transport.hpp"
#include "geom/components.hpp"
#include "halo_oracle.hpp"
#include "mesh/builders.hpp"
#include "nsu3d/partitioned.hpp"
#include "resil/faults.hpp"
#include "smp/pool.hpp"
#include "smp/shm_transport.hpp"
#include "smp/tcp_transport.hpp"

namespace columbia {
namespace {

struct InjectorGuard {
  explicit InjectorGuard(const std::string& spec) {
    resil::FaultInjector::global().configure(resil::parse_fault_spec(spec));
  }
  ~InjectorGuard() { resil::FaultInjector::global().reset(); }
};

struct PoolGuard {
  ~PoolGuard() { smp::set_global_threads(1); }
};

using halo_oracle::expected;
using halo_oracle::make_scenario;
using halo_oracle::Scenario;

core::WireOptions test_wire() {
  core::WireOptions w;
  w.deadline_ms = 50;
  w.max_attempts = 8;
  w.backoff_base_ms = 1;
  w.backoff_max_ms = 4;
  w.loopback_self = true;
  return w;
}

// --- post()/finish() against the blocking exchange -------------------------

TEST(SplitExchange, PostFinishMatchesBlockingBitwise) {
  for (const core::ExchangeStrategy strat :
       {core::ExchangeStrategy::ThreadToThread,
        core::ExchangeStrategy::MasterThread}) {
    const int tpp = strat == core::ExchangeStrategy::MasterThread ? 2 : 1;
    Scenario s = make_scenario(8, 20, 15, 31);
    core::ExchangePlan split(s.requests, {strat, tpp});
    core::ExchangePlan block(s.requests, {strat, tpp});
    for (int round = 0; round < 4; ++round) {
      const core::PartitionData snapshot = s.data;
      EXPECT_FALSE(split.posted());
      split.post(s.data);
      EXPECT_TRUE(split.posted());
      // post() snapshots: the caller owns `data` again and may scribble on
      // it while the exchange is in flight (the overlapped interior loop).
      for (auto& d : s.data)
        for (auto& v : d) v = -4096.0;
      const core::PartitionData got = split.finish();
      EXPECT_FALSE(split.posted());
      s.data = snapshot;
      EXPECT_EQ(got, block.exchange(s.data)) << "round " << round;
      EXPECT_EQ(got, expected(s)) << "round " << round;
      for (auto& d : s.data)
        for (auto& v : d) v += 0.25 * real_t(round + 1);
    }
    // Same wire accounting too: the split path is the same machinery.
    EXPECT_EQ(split.stats().messages, block.stats().messages);
    EXPECT_EQ(split.stats().bytes, block.stats().bytes);
    EXPECT_EQ(split.stats().exchanges, block.stats().exchanges);
  }
}

TEST(SplitExchange, PostFinishBitIdenticalUnderHaloFaults) {
  const Scenario s = make_scenario(8, 20, 15, 32);
  const core::PartitionData want = expected(s);
  InjectorGuard faults("seed=11,halo_corrupt=0.4,halo_drop=0.4");
  core::ExchangePlan t2t(s.requests);
  core::ExchangePlan master(s.requests,
                            {core::ExchangeStrategy::MasterThread, 4});
  for (int round = 0; round < 4; ++round) {
    t2t.post(s.data);
    master.post(s.data);
    EXPECT_EQ(t2t.finish(), want) << "round " << round;
    EXPECT_EQ(master.finish(), want) << "round " << round;
  }
  EXPECT_GT(t2t.stats().retransmits + master.stats().retransmits, 0u);
}

// --- post()/finish() over every wire backend (fork-free loopback) ----------

void expect_split_loopback_identity(core::Transport& t,
                                    const std::string& faults) {
  const Scenario s = make_scenario(6, 18, 14, 33);
  const core::PartitionData want = expected(s);
  for (const core::ExchangeStrategy strat :
       {core::ExchangeStrategy::ThreadToThread,
        core::ExchangeStrategy::MasterThread}) {
    core::ExchangePlanOptions opt;
    opt.strategy = strat;
    opt.threads_per_process =
        strat == core::ExchangeStrategy::MasterThread ? 2 : 1;
    opt.level = 0;
    opt.transport = &t;
    opt.wire = test_wire();
    core::ExchangePlan plan(s.requests, opt);
    if (!faults.empty()) {
      InjectorGuard inj(faults);
      for (int round = 0; round < 3; ++round) {
        plan.post(s.data);
        EXPECT_EQ(plan.finish(), want)
            << "faulted, strat " << int(strat) << " round " << round;
      }
      EXPECT_GT(plan.stats().retransmits, 0u) << "fault spec never fired";
    } else {
      for (int round = 0; round < 3; ++round) {
        plan.post(s.data);
        EXPECT_EQ(plan.finish(), want)
            << "clean, strat " << int(strat) << " round " << round;
      }
      EXPECT_EQ(plan.stats().retransmits, 0u);
    }
  }
}

TEST(SplitExchange, LocalWireDeliversBitIdentical) {
  core::LocalGroup group(1);
  auto t = group.endpoint(0);
  expect_split_loopback_identity(*t, "");
  expect_split_loopback_identity(*t, "seed=13,halo_corrupt=0.3,msg_drop=0.2");
}

TEST(SplitExchange, ShmWireDeliversBitIdentical) {
  smp::ShmGroup group(1);
  auto t = group.endpoint(0);
  expect_split_loopback_identity(*t, "");
  expect_split_loopback_identity(*t, "seed=13,halo_corrupt=0.3,msg_drop=0.2");
}

TEST(SplitExchange, TcpWireDeliversBitIdentical) {
  smp::TcpGroup group(1);
  auto t = group.endpoint(0);
  expect_split_loopback_identity(*t, "");
  expect_split_loopback_identity(*t, "seed=13,halo_corrupt=0.3,msg_drop=0.2");
}

// --- Solver overlap paths: NSU3D ------------------------------------------

struct WingCase {
  std::vector<nsu3d::Level> levels;
  std::vector<nsu3d::State> u;
  euler::Prim inf;
  nsu3d::PartitionPlan plan;
};

WingCase make_wing_case() {
  mesh::WingMeshSpec spec;
  spec.n_wrap = 24;
  spec.n_span = 3;
  spec.n_normal = 10;
  spec.wall_spacing = 1e-4;
  const auto m = mesh::make_wing_mesh(spec);
  nsu3d::LevelOptions lo;
  lo.num_levels = 1;
  WingCase w;
  w.levels = nsu3d::build_levels(m, lo);
  const nsu3d::Level& lvl = w.levels[0];

  euler::FlowConditions fc;
  fc.mach = 0.6;
  w.inf = fc.freestream();
  w.u.resize(std::size_t(lvl.num_nodes));
  for (index_t v = 0; v < lvl.num_nodes; ++v) {
    const geom::Vec3& x = lvl.node_center[std::size_t(v)];
    euler::Prim prim = w.inf;
    prim.rho *= 1.0 + 0.05 * std::sin(x.x + 0.3 * x.y);
    prim.p *= 1.0 + 0.05 * std::cos(0.7 * x.z);
    const auto c5 = euler::to_conservative(prim);
    for (int c = 0; c < 5; ++c)
      w.u[std::size_t(v)][std::size_t(c)] = c5[std::size_t(c)];
    w.u[std::size_t(v)][5] = 1e-5 * prim.rho;
  }
  w.plan = nsu3d::build_partition_plan(w.levels, 4);
  return w;
}

TEST(SplitResidual, Nsu3dOverlapBitIdenticalAcrossThreadsAndStrategies) {
  const WingCase w = make_wing_case();
  const nsu3d::Level& lvl = w.levels[0];
  const auto& part = w.plan.levels[0].part;
  PoolGuard pool;
  const auto baseline = nsu3d::parallel_residual(lvl, w.u, w.inf, part, 4);
  for (const int threads : {1, 2, 4}) {
    smp::set_global_threads(threads);
    for (const core::ExchangeStrategy strat :
         {core::ExchangeStrategy::ThreadToThread,
          core::ExchangeStrategy::MasterThread}) {
      core::ExchangePlanOptions comm;
      comm.strategy = strat;
      comm.threads_per_process =
          strat == core::ExchangeStrategy::MasterThread ? 2 : 1;
      const auto plain =
          nsu3d::parallel_residual(lvl, w.u, w.inf, part, 4, comm, false);
      const auto lap =
          nsu3d::parallel_residual(lvl, w.u, w.inf, part, 4, comm, true);
      EXPECT_EQ(plain, lap)
          << threads << " threads, strat " << int(strat);
      EXPECT_EQ(lap, baseline)
          << threads << " threads, strat " << int(strat);
    }
  }
}

TEST(SplitResidual, Nsu3dOverlapBitIdenticalUnderHaloFaults) {
  const WingCase w = make_wing_case();
  const nsu3d::Level& lvl = w.levels[0];
  const auto& part = w.plan.levels[0].part;
  PoolGuard pool;
  const auto baseline = nsu3d::parallel_residual(lvl, w.u, w.inf, part, 4);
  smp::set_global_threads(2);
  InjectorGuard faults("seed=7,halo_corrupt=0.3,halo_drop=0.3");
  EXPECT_EQ(nsu3d::parallel_residual(lvl, w.u, w.inf, part, 4, {}, true),
            baseline);
  EXPECT_EQ(nsu3d::parallel_residual(
                lvl, w.u, w.inf, part, 4,
                {core::ExchangeStrategy::MasterThread, 2}, true),
            baseline);
  EXPECT_GT(resil::FaultInjector::global().injected(
                resil::FaultKind::HaloCorrupt) +
                resil::FaultInjector::global().injected(
                    resil::FaultKind::HaloDrop),
            0u);
}

TEST(SplitResidual, Nsu3dOverlapBitIdenticalOverWireBackends) {
  const WingCase w = make_wing_case();
  const nsu3d::Level& lvl = w.levels[0];
  const auto& part = w.plan.levels[0].part;
  const auto baseline = nsu3d::parallel_residual(lvl, w.u, w.inf, part, 4);

  const auto check = [&](core::Transport& t, const std::string& faults) {
    core::ExchangePlanOptions comm;
    comm.level = 0;
    comm.transport = &t;
    comm.wire = test_wire();
    std::unique_ptr<InjectorGuard> inj;
    if (!faults.empty()) inj = std::make_unique<InjectorGuard>(faults);
    const auto plain =
        nsu3d::parallel_residual(lvl, w.u, w.inf, part, 4, comm, false);
    const auto lap =
        nsu3d::parallel_residual(lvl, w.u, w.inf, part, 4, comm, true);
    EXPECT_EQ(plain, lap);
    EXPECT_EQ(lap, baseline);
  };

  {
    core::LocalGroup group(1);
    auto t = group.endpoint(0);
    check(*t, "");
  }
  {
    smp::ShmGroup group(1);
    auto t = group.endpoint(0);
    check(*t, "");
    check(*t, "seed=13,halo_corrupt=0.3,msg_drop=0.2");
  }
  {
    smp::TcpGroup group(1);
    auto t = group.endpoint(0);
    check(*t, "");
    check(*t, "seed=13,halo_corrupt=0.3,msg_drop=0.2");
  }
}

// --- Solver overlap paths: Cart3D ------------------------------------------

TEST(SplitResidual, Cart3dOverlapBitIdentical) {
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
    euler::Prim prim = inf;
    const geom::Vec3 x = m.cell_center(m.cells[i]);
    prim.rho *= 1.0 + 0.04 * std::sin(1.3 * x.x + 0.5 * x.y);
    prim.p *= 1.0 + 0.04 * std::cos(0.9 * x.z);
    u[i] = euler::to_conservative(prim);
  }
  const auto part = cartesian::partition_cells(m, 4);

  PoolGuard pool;
  const auto baseline = cart3d::parallel_residual(m, u, inf, part, 4);
  for (const int threads : {1, 2}) {
    smp::set_global_threads(threads);
    for (const core::ExchangeStrategy strat :
         {core::ExchangeStrategy::ThreadToThread,
          core::ExchangeStrategy::MasterThread}) {
      core::ExchangePlanOptions comm;
      comm.strategy = strat;
      comm.threads_per_process =
          strat == core::ExchangeStrategy::MasterThread ? 2 : 1;
      const auto lap = cart3d::parallel_residual(
          m, u, inf, part, 4, euler::FluxScheme::Roe, comm, true);
      EXPECT_EQ(lap, baseline)
          << threads << " threads, strat " << int(strat);
    }
  }
  InjectorGuard faults("seed=7,halo_corrupt=0.3,halo_drop=0.3");
  EXPECT_EQ(cart3d::parallel_residual(m, u, inf, part, 4,
                                      euler::FluxScheme::Roe, {}, true),
            baseline);
}

// --- Coarse-level rank agglomeration ---------------------------------------

/// Two live member threads over one LocalGroup: the agglomerated plan
/// (active_members=1, member 1 parked) must deliver the same halo values
/// on BOTH members as the full-rank plan, through the split post/finish
/// path, with the data evolving between rounds.
TEST(Agglomeration, ParkedMemberAgreesBitwiseWithFullRank) {
  const Scenario base = make_scenario(6, 18, 14, 41);
  const auto run = [&](int active_members) {
    // [member][round] -> delivered values.
    std::vector<std::vector<core::PartitionData>> got(
        2, std::vector<core::PartitionData>(3));
    std::vector<int> codes(2, -1);
    core::LocalGroup group(2);
    std::vector<std::thread> members;
    for (int r = 0; r < 2; ++r)
      members.emplace_back([&, r] {
        try {
          auto t = group.endpoint(r);
          core::ExchangePlanOptions opt;
          opt.level = 2;
          opt.transport = t.get();
          opt.wire.deadline_ms = 200;
          opt.active_members = active_members;
          core::ExchangePlan plan(base.requests, opt);
          Scenario s = base;  // members run replicated data
          for (int round = 0; round < 3; ++round) {
            plan.post(s.data);
            got[std::size_t(r)][std::size_t(round)] = plan.finish();
            for (auto& d : s.data)
              for (auto& v : d) v += 0.5 * real_t(round + 1);
          }
          plan.drain(50);
          codes[std::size_t(r)] = 0;
        } catch (const std::exception&) {
          codes[std::size_t(r)] = 70;
        }
      });
    for (auto& th : members) th.join();
    EXPECT_EQ(codes[0], 0) << "active_members " << active_members;
    EXPECT_EQ(codes[1], 0) << "active_members " << active_members;
    return got;
  };

  const auto agglomerated = run(1);
  const auto full_rank = run(0);
  // Round-0 sanity against the schedule semantics...
  EXPECT_EQ(agglomerated[0][0], expected(base));
  // ...then full cross-mode, cross-member bitwise identity.
  for (int r = 0; r < 2; ++r)
    for (int round = 0; round < 3; ++round) {
      EXPECT_EQ(agglomerated[std::size_t(r)][std::size_t(round)],
                full_rank[0][std::size_t(round)])
          << "member " << r << " round " << round;
      EXPECT_EQ(full_rank[std::size_t(r)][std::size_t(round)],
                full_rank[0][std::size_t(round)])
          << "member " << r << " round " << round;
    }
}

}  // namespace
}  // namespace columbia
