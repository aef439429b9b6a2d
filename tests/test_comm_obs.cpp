// Comm-observatory tests: the wait-state analyzer pinned to the committed
// fixture traces (every expectation below is hand-computed from the span
// timestamps in tests/data/comm_trace_*.json), the `columbia_report comm`
// subcommand over the same fixtures, and retransmit accounting — the
// halo.xchg.retransmit span count must equal the plan's own ledger and
// the resil counter at 1/2/4 threads per process, with fault injection
// armed.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cart3d/partitioned.hpp"
#include "cartesian/cart_mesh.hpp"
#include "core/exchange_plan.hpp"
#include "geom/components.hpp"
#include "halo_oracle.hpp"
#include "mesh/builders.hpp"
#include "nsu3d/partitioned.hpp"
#include "obs/comm_report.hpp"
#include "obs/json_parse.hpp"
#include "obs/obs.hpp"
#include "obs/report_cli.hpp"
#include "obs/shard.hpp"
#include "resil/faults.hpp"

namespace columbia {
namespace {

std::string fixture(const std::string& name) {
  return std::string(COLUMBIA_TEST_DATA_DIR) + "/" + name;
}

/// Loads a Chrome-trace fixture into PhaseEvents the same way the CLI's
/// trace ingest does (name/ph/ts/tid plus the halo.xchg args).
std::vector<obs::PhaseEvent> load_trace(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  std::ostringstream ss;
  ss << is.rdbuf();
  obs::JsonValue doc;
  EXPECT_TRUE(obs::parse_json(ss.str(), doc)) << path;
  std::vector<obs::PhaseEvent> events;
  const obs::JsonValue* evs = doc.find("traceEvents");
  if (evs == nullptr) return events;
  for (const obs::JsonValue& e : evs->items()) {
    const std::string ph = e.string_or("ph", "");
    if (ph != "B" && ph != "E") continue;
    obs::PhaseEvent pe;
    pe.name = e.string_or("name", "");
    pe.phase = ph[0];
    pe.ts_us = e.number_or("ts", 0);
    pe.tid = int(e.number_or("tid", 0));
    if (const obs::JsonValue* args = e.find("args");
        args != nullptr && args->is_object()) {
      pe.level = std::int64_t(args->number_or("level", -1));
      pe.rank = std::int64_t(args->number_or("rank", -1));
      pe.nbr = std::int64_t(args->number_or("nbr", -1));
      pe.strat = std::int64_t(args->number_or("strat", -1));
      pe.bytes = std::int64_t(args->number_or("bytes", -1));
    }
    events.push_back(std::move(pe));
  }
  return events;
}

struct CliResult {
  int exit_code;
  std::string out, err;
};

CliResult run_cli(std::vector<std::string> args) {
  std::ostringstream out, err;
  const int code = obs::report::run(args, out, err);
  return {code, out.str(), err.str()};
}

constexpr double kTol = 1e-12;

// --- Analyzer math vs hand-computed fixtures ------------------------------

// comm_trace_small.json: 2 ranks, thread-to-thread. Level 0 is a clean
// exchange where rank 0 waits 100 ms on rank 1's slow 310 ms post (late
// sender) while rank 1's 5 ms wait follows a message that aged 90 ms
// (late receiver). Level 1 replays the same pair with one faulted attempt:
// rank 0 posts twice (retransmit marker between), rank 1 waits twice.
TEST(CommReport, SmallFixtureWaitMatrixExact) {
  const obs::CommReport r = obs::build_comm_report(
      load_trace(fixture("comm_trace_small.json")));
  ASSERT_FALSE(r.empty());
  EXPECT_EQ(r.ranks, 2);
  EXPECT_EQ(r.retransmits, 1u);
  EXPECT_NEAR(r.wait_s, 0.105 + 0.00116, kTol);
  EXPECT_NEAR(r.late_sender_s, 0.09 + 0.00109, kTol);
  EXPECT_NEAR(r.late_receiver_s, 0.09 + 0.0011, kTol);

  ASSERT_EQ(r.groups.size(), 2u);
  const obs::CommGroup& g0 = r.groups[0];
  EXPECT_EQ(g0.level, 0);
  EXPECT_EQ(g0.strat, 0);
  EXPECT_EQ(g0.ranks, 2);
  EXPECT_EQ(g0.messages, 2u);
  EXPECT_EQ(g0.bytes, 1600u);
  EXPECT_EQ(g0.retransmits, 0u);
  EXPECT_NEAR(g0.pack_s, 0.020, kTol);
  EXPECT_NEAR(g0.post_s, 0.330, kTol);
  EXPECT_NEAR(g0.wait_s, 0.105, kTol);
  EXPECT_NEAR(g0.unpack_s, 0.020, kTol);
  ASSERT_EQ(g0.cells.size(), 2u);
  // Cell (rank 0 <- 1): the receiver blocked 100 ms, 90 ms of which ran
  // concurrently with the sender's still-open post -> late sender.
  EXPECT_EQ(g0.cells[0].rank, 0);
  EXPECT_EQ(g0.cells[0].nbr, 1);
  EXPECT_EQ(g0.cells[0].messages, 1u);
  EXPECT_EQ(g0.cells[0].bytes, 800u);
  EXPECT_NEAR(g0.cells[0].wait_s, 0.100, kTol);
  EXPECT_NEAR(g0.cells[0].late_sender_s, 0.090, kTol);
  EXPECT_NEAR(g0.cells[0].late_receiver_s, 0.0, kTol);
  // Cell (rank 1 <- 0): the message was posted 90 ms before the receiver
  // asked for it -> late receiver.
  EXPECT_EQ(g0.cells[1].rank, 1);
  EXPECT_EQ(g0.cells[1].nbr, 0);
  EXPECT_NEAR(g0.cells[1].wait_s, 0.005, kTol);
  EXPECT_NEAR(g0.cells[1].late_sender_s, 0.0, kTol);
  EXPECT_NEAR(g0.cells[1].late_receiver_s, 0.090, kTol);

  const obs::CommGroup& g1 = r.groups[1];
  EXPECT_EQ(g1.level, 1);
  EXPECT_EQ(g1.messages, 3u);  // 2 attempts rank0->1 + 1 clean rank1->0
  EXPECT_EQ(g1.bytes, 240u);
  EXPECT_EQ(g1.retransmits, 1u);
  EXPECT_NEAR(g1.wait_s, 0.00116, kTol);
  ASSERT_EQ(g1.cells.size(), 2u);
  // k-th wait matches k-th post per directed pair, so the faulted first
  // attempt (1010 us wait vs the post that ends mid-wait: 1000 us late
  // sender) and the clean retry (90 us late sender) both line up.
  EXPECT_EQ(g1.cells[1].rank, 1);
  EXPECT_EQ(g1.cells[1].messages, 2u);
  EXPECT_NEAR(g1.cells[1].wait_s, 0.00111, kTol);
  EXPECT_NEAR(g1.cells[1].late_sender_s, 0.00109, kTol);
  EXPECT_EQ(g1.cells[0].rank, 0);
  EXPECT_NEAR(g1.cells[0].wait_s, 0.00005, kTol);
  EXPECT_NEAR(g1.cells[0].late_receiver_s, 0.0011, kTol);
}

// Critical path, level 0: rank 1's chain pack(10ms) -> post(310ms) feeds
// rank 0's wait (100ms exclusive) through the post->wait edge, then rank
// 0's unpack (10ms): 10+310+100+10 = 430 ms. Level 1: rank 1's chain
// pack(100us) -> post(100us) -> wait1(1010us) -> wait2(100us) ->
// unpack(100us) = 1410 us.
TEST(CommReport, SmallFixtureCriticalPathExact) {
  const obs::CommReport r = obs::build_comm_report(
      load_trace(fixture("comm_trace_small.json")));
  ASSERT_EQ(r.groups.size(), 2u);
  EXPECT_NEAR(r.groups[0].critical_path_s, 0.430, kTol);
  EXPECT_NEAR(r.groups[1].critical_path_s, 0.00141, kTol);
}

// Overlap headroom: level 0 has 800 ms of level-tagged interior compute
// against 105 ms of wait -> fully coverable, no advice. Level 1 has 800 us
// of interior against 1160 us of wait (headroom 0.6896...) and per-rank
// interior per exchange (800/(2*2) = 200 us) below per-rank comm per
// exchange (1860/(2*2) = 465 us) -> the Fig. 19 agglomeration regime.
TEST(CommReport, SmallFixtureOverlapHeadroomExact) {
  const obs::CommReport r = obs::build_comm_report(
      load_trace(fixture("comm_trace_small.json")));
  ASSERT_EQ(r.levels.size(), 2u);
  const obs::LevelOverlap& l0 = r.levels[0];
  EXPECT_EQ(l0.level, 0);
  EXPECT_EQ(l0.ranks, 2);
  EXPECT_EQ(l0.exchanges, 1u);
  EXPECT_NEAR(l0.interior_s, 0.800, kTol);
  EXPECT_NEAR(l0.comm_s, 0.475, kTol);
  EXPECT_NEAR(l0.wait_s, 0.105, kTol);
  EXPECT_NEAR(l0.coverable_s, 0.105, kTol);
  EXPECT_NEAR(l0.headroom, 1.0, kTol);
  EXPECT_FALSE(l0.agglomerate);

  const obs::LevelOverlap& l1 = r.levels[1];
  EXPECT_EQ(l1.level, 1);
  EXPECT_EQ(l1.exchanges, 2u);  // two matched messages in one cell
  EXPECT_NEAR(l1.interior_s, 0.0008, kTol);
  EXPECT_NEAR(l1.comm_s, 0.00186, kTol);
  EXPECT_NEAR(l1.wait_s, 0.00116, kTol);
  EXPECT_NEAR(l1.coverable_s, 0.0008, kTol);
  EXPECT_NEAR(l1.headroom, 0.0008 / 0.00116, kTol);
  EXPECT_NEAR(l1.comm_per_exchange_s, 0.00186 / 4, kTol);
  EXPECT_NEAR(l1.compute_per_exchange_s, 0.0008 / 4, kTol);
  EXPECT_TRUE(l1.agglomerate);
}

// comm_trace_master.json: master strategy, waits nested inside unpack.
// Exclusive time keeps the nested waits out of the unpack totals: rank 0
// unpack 700 us inclusive - 500 us wait = 200 us, rank 1 400 - 100 = 300.
// Critical path is rank 1's post (cp 400 us) feeding rank 0's 500 us
// wait: 900 us.
TEST(CommReport, MasterFixtureNestedWaitsExact) {
  const obs::CommReport r = obs::build_comm_report(
      load_trace(fixture("comm_trace_master.json")));
  ASSERT_EQ(r.groups.size(), 1u);
  const obs::CommGroup& g = r.groups[0];
  EXPECT_EQ(g.level, 0);
  EXPECT_EQ(g.strat, 1);
  EXPECT_EQ(g.ranks, 2);
  EXPECT_EQ(g.messages, 2u);
  EXPECT_EQ(g.bytes, 3200u);
  EXPECT_NEAR(g.wait_s, 600e-6, kTol);
  EXPECT_NEAR(g.unpack_s, 500e-6, kTol);
  EXPECT_NEAR(g.critical_path_s, 900e-6, kTol);
  double ls = 0, lr = 0;
  for (const obs::WaitCell& c : g.cells) {
    ls += c.late_sender_s;
    lr += c.late_receiver_s;
  }
  EXPECT_NEAR(ls, 50e-6, kTol);
  EXPECT_NEAR(lr, 350e-6, kTol);
  // No level-tagged interior compute in this fixture: nothing coverable,
  // and comm per exchange dominates -> agglomeration advice fires.
  ASSERT_EQ(r.levels.size(), 1u);
  EXPECT_NEAR(r.levels[0].headroom, 0.0, kTol);
  EXPECT_TRUE(r.levels[0].agglomerate);
}

// --- The columbia_report comm subcommand over the same fixtures -----------

TEST(CommCli, SingleTraceReportsMatrixRollupAndHeadroom) {
  const CliResult r = run_cli({"comm", fixture("comm_trace_small.json")});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  // Provenance header, then the three observatory tables.
  EXPECT_NE(r.out.find("columbia_report "), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("comm observatory"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("wait matrix"), std::string::npos);
  EXPECT_NE(r.out.find("strategy rollup"), std::string::npos);
  EXPECT_NE(r.out.find("overlap headroom"), std::string::npos);
  // Hand-computed numbers surface in the tables: level 0 wait 100.000 ms
  // with 90.000 ms late-send on the (0 <- 1) cell; level 1 critical path
  // 1.410 ms; level 1 flagged for agglomeration, level 0 not.
  EXPECT_NE(r.out.find("100.000"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("90.000"), std::string::npos);
  EXPECT_NE(r.out.find("430.000"), std::string::npos);
  EXPECT_NE(r.out.find("1.410"), std::string::npos);
  EXPECT_NE(r.out.find("agglomerate"), std::string::npos);
  EXPECT_NE(r.out.find("retransmits"), std::string::npos);
}

TEST(CommCli, MultiTraceComparesStrategies) {
  const CliResult r = run_cli({"comm", fixture("comm_trace_small.json"),
                               fixture("comm_trace_master.json")});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("strategy comparison"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("t2t"), std::string::npos);
  EXPECT_NE(r.out.find("master"), std::string::npos);
}

TEST(CommCli, RejectsNonTraceDocuments) {
  const CliResult r =
      run_cli({"comm", fixture("bench_kernels_base.json")});
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.err.find("comm subcommand"), std::string::npos) << r.err;
}

// --- Retransmit accounting on the live transports -------------------------

/// Restores observability-off state when a test exits.
struct ObsGuard {
  ~ObsGuard() {
    obs::set_enabled(false);
    obs::reset_trace();
    resil::FaultInjector::global().reset();
  }
};

using halo_oracle::expected;
using halo_oracle::make_scenario;
using halo_oracle::Scenario;

std::uint64_t retransmit_spans(const std::vector<obs::PhaseEvent>& events) {
  std::uint64_t n = 0;
  for (const obs::PhaseEvent& e : events)
    if (e.phase == 'B' && e.name == "halo.xchg.retransmit") ++n;
  return n;
}

// Every faulted attempt must show up identically in three ledgers: the
// halo.xchg.retransmit span stream, the plan's ExchangeStats, and the
// resil.halo.retransmits counter.
TEST(RetransmitAccounting, PlanSpansMatchStatsAndCounter) {
  const Scenario s = make_scenario(8, 20, 15, 11);
  const core::PartitionData want = expected(s);
  struct Config {
    core::ExchangeStrategy strategy;
    int tpp;
  };
  const Config configs[] = {{core::ExchangeStrategy::ThreadToThread, 1},
                            {core::ExchangeStrategy::MasterThread, 2},
                            {core::ExchangeStrategy::MasterThread, 4}};
  for (const Config& cfg : configs) {
    ObsGuard guard;
    resil::FaultInjector::global().configure(
        resil::parse_fault_spec("seed=13,halo_corrupt=0.3,halo_drop=0.3"));
    obs::reset_trace();
    obs::set_enabled(true);
    const std::uint64_t c0 = obs::counter("resil.halo.retransmits").value();
    core::ExchangePlan plan(s.requests, {cfg.strategy, cfg.tpp, /*level=*/2});
    for (int round = 0; round < 3; ++round)
      EXPECT_EQ(plan.exchange(s.data), want) << "tpp " << cfg.tpp;
    obs::set_enabled(false);
    const std::uint64_t counted =
        obs::counter("resil.halo.retransmits").value() - c0;
    const std::vector<obs::PhaseEvent> events = obs::phase_events_since();
    EXPECT_GT(plan.stats().retransmits, 0u) << "fault spec never fired";
    EXPECT_EQ(retransmit_spans(events), plan.stats().retransmits);
    EXPECT_EQ(counted, plan.stats().retransmits);
    // The analyzer sees the same count, attributed to the plan's level
    // and strategy.
    const obs::CommReport cr = obs::build_comm_report(events);
    EXPECT_EQ(cr.retransmits, plan.stats().retransmits);
    for (const obs::CommGroup& g : cr.groups) {
      EXPECT_EQ(g.level, 2);
      EXPECT_EQ(g.strat, core::strategy_id(cfg.strategy));
    }
  }
}

// --- End to end: both partitioned drivers, traced, through the report -----

/// Records `drive` with span recording on and writes this process's
/// recording as the merged trace at `path`.
template <class Drive>
void record_trace(const std::string& path, Drive drive) {
  ObsGuard guard;
  obs::reset_trace();
  obs::set_enabled(true);
  drive();
  obs::set_enabled(false);
  ASSERT_TRUE(obs::write_trace(path, {obs::live_shard()}));
}

// A real NSU3D partitioned residual and a real Cart3D one, each recorded
// into its own trace: `columbia_report comm` must print the wait matrix /
// strategy rollup / overlap headroom tables for each, and `comm --json`
// must carry each run's exchanges attributed to the level the plan was
// tagged with.
TEST(CommEndToEnd, PartitionedDriversReportWaitAndOverlap) {
  const std::string nsu3d_trace = testing::TempDir() + "comm_e2e_nsu3d.json";
  const std::string cart3d_trace = testing::TempDir() + "comm_e2e_cart3d.json";

  {  // NSU3D wing decomposition, thread-to-thread, tagged level 0.
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
      const auto c5 = euler::to_conservative(inf);
      for (int c = 0; c < 5; ++c)
        u[std::size_t(v)][std::size_t(c)] = c5[std::size_t(c)];
      u[std::size_t(v)][5] = 1e-5 * inf.rho;
    }
    const auto plan = nsu3d::build_partition_plan(levels, 4);

    record_trace(nsu3d_trace, [&] {
      nsu3d::parallel_residual(lvl, u, inf, plan.levels[0].part, 4,
                               {core::ExchangeStrategy::ThreadToThread, 1, 0});
    });
    const CliResult r = run_cli({"comm", nsu3d_trace});
    ASSERT_EQ(r.exit_code, obs::report::kOk) << r.err;
    EXPECT_NE(r.out.find("comm observatory"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("wait matrix"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("strategy rollup"), std::string::npos);
    EXPECT_NE(r.out.find("overlap headroom"), std::string::npos);
    EXPECT_NE(r.out.find("t2t"), std::string::npos);
  }

  {  // Cart3D SFC decomposition, master strategy, tagged level 0.
    const auto sphere = geom::make_sphere({0, 0, 0}, 0.4, 12, 24);
    geom::Aabb dom;
    dom.expand({-1.5, -1.5, -1.5});
    dom.expand({1.5, 1.5, 1.5});
    cartesian::CartMeshOptions mopt;
    mopt.base_n = 8;
    mopt.max_level = 1;
    const cartesian::CartMesh m = cartesian::build_cart_mesh(sphere, dom, mopt);
    euler::FlowConditions fc;
    fc.mach = 0.5;
    const euler::Prim inf = fc.freestream();
    std::vector<euler::Cons> u(m.cells.size(), euler::to_conservative(inf));
    const auto part = cartesian::partition_cells(m, 4);

    record_trace(cart3d_trace, [&] {
      cart3d::parallel_residual(m, u, inf, part, 4, euler::FluxScheme::Roe,
                                {core::ExchangeStrategy::MasterThread, 2, 0});
    });
    const CliResult r = run_cli({"comm", cart3d_trace});
    ASSERT_EQ(r.exit_code, obs::report::kOk) << r.err;
    EXPECT_NE(r.out.find("comm observatory"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("wait matrix"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("master"), std::string::npos);
  }

  // `comm --json` over both traces: one run per trace, each carrying the
  // comm observatory object attributed to level 0.
  const CliResult r = run_cli({"comm", "--json", nsu3d_trace, cart3d_trace});
  ASSERT_EQ(r.exit_code, obs::report::kOk) << r.err;
  obs::JsonValue doc;
  ASSERT_TRUE(obs::parse_json(r.out, doc)) << r.out;
  const obs::JsonValue* runs = doc.find("runs");
  ASSERT_NE(runs, nullptr) << r.out;
  EXPECT_EQ(runs->items().size(), 2u);
  for (const obs::JsonValue& run : runs->items()) {
    const obs::JsonValue* comm = run.find("comm");
    ASSERT_NE(comm, nullptr) << r.out;
    const obs::JsonValue* groups = comm->find("groups");
    ASSERT_NE(groups, nullptr);
    ASSERT_FALSE(groups->items().empty());
    EXPECT_EQ(std::int64_t(groups->items()[0].number_or("level", -1)), 0);
    const obs::JsonValue* lvls = comm->find("levels");
    ASSERT_NE(lvls, nullptr);
    ASSERT_FALSE(lvls->items().empty());
    EXPECT_GE(lvls->items()[0].number_or("headroom", -1), 0.0);
  }
  std::remove(nsu3d_trace.c_str());
  std::remove(cart3d_trace.c_str());
}

}  // namespace
}  // namespace columbia
