// Ablation (paper Fig. 7): thread-to-thread vs master-thread hybrid
// communication, measured on the core::ExchangePlan schedules the solvers
// run.
//
// The paper: "the thread parallel approach to communication scales poorly
// due to the MPI calls locking ... Thus, the master thread communication
// strategy is used exclusively in this work", and the master strategy
// "results in a smaller number of larger messages". We measure message
// counts and mean message sizes for a real halo exchange over the wing
// mesh decomposition, at 1 (thread-to-thread), 2, 4 and 8 partitions per
// process.
// A second set of series prices the persistent plan itself: one-time
// build cost, per-exchange wall time, and heap allocations per
// steady-state exchange (the plan contract is zero).
// A third set of series is the overlap ablation: the same halo schedule
// driven blocking (exchange(); compute) vs split (post(); compute;
// finish()) over a real two-member wire (core::LocalGroup) with a
// deliberate compute imbalance, per strategy and per multigrid level.
// "halo stall" is the time the member thread spends inside the halo
// calls themselves — the wait the split path exists to hide.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <thread>

#include "bench_util.hpp"
#include "core/exchange_plan.hpp"
#include "nsu3d/partitioned.hpp"
#include "obs/comm_report.hpp"
#include "obs/obs.hpp"
#include "obs/shard.hpp"
#include "support/timer.hpp"

// Allocation counter for the allocations-per-exchange column.
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
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace columbia;

int main(int argc, char** argv) {
  bench::banner("Ablation — Fig. 7 hybrid communication strategies",
                "messages and payloads, thread-to-thread vs master-thread");
  bench::Reporter rep(argc, argv, "ablation_hybrid_comm");
  rep.meta("strategy", "thread-to-thread + master-thread (ExchangePlan)");

  // A real decomposition of the wing mesh provides the halo pattern.
  mesh::WingMeshSpec spec;
  spec.n_wrap = 48;
  spec.n_span = 8;
  spec.n_normal = 20;
  const auto m = mesh::make_wing_mesh(spec);
  nsu3d::LevelOptions lo;
  lo.num_levels = 2;  // level 1 feeds the coarse rows of the overlap ablation
  const auto levels = nsu3d::build_levels(m, lo);
  const nsu3d::Level& lvl = levels[0];

  const index_t nparts = 16;
  const auto plan = nsu3d::build_partition_plan(levels, nparts);

  // Partition-local data (6 doubles per owned node, flattened) and the
  // ghost request lists implied by cross-partition edges.
  auto make_halo = [nparts](const nsu3d::Level& L,
                            const std::vector<index_t>& part,
                            core::PartitionData& data,
                            core::RequestLists& requests) {
    std::vector<std::vector<index_t>> local_ids(std::size_t(nparts),
                                                std::vector<index_t>{});
    std::vector<index_t> slot(std::size_t(L.num_nodes));
    for (index_t v = 0; v < L.num_nodes; ++v) {
      slot[std::size_t(v)] =
          index_t(local_ids[std::size_t(part[std::size_t(v)])].size());
      local_ids[std::size_t(part[std::size_t(v)])].push_back(v);
    }
    data.assign(std::size_t(nparts), std::vector<real_t>{});
    for (index_t p = 0; p < nparts; ++p) {
      data[std::size_t(p)].resize(local_ids[std::size_t(p)].size() * 6);
      for (std::size_t k = 0; k < data[std::size_t(p)].size(); ++k)
        data[std::size_t(p)][k] = real_t(p) + 1e-3 * real_t(k);
    }
    requests.assign(std::size_t(nparts), std::vector<core::HaloRequest>{});
    for (std::size_t e = 0; e < L.edges.size(); ++e) {
      const auto [a, b] = L.edges[e];
      const index_t pa = part[std::size_t(a)];
      const index_t pb = part[std::size_t(b)];
      if (pa == pb) continue;
      for (int c = 0; c < 6; ++c) {
        requests[std::size_t(pa)].push_back(
            {pb, slot[std::size_t(b)] * 6 + c});
        requests[std::size_t(pb)].push_back(
            {pa, slot[std::size_t(a)] * 6 + c});
      }
    }
  };
  core::PartitionData data;
  core::RequestLists requests;
  make_halo(lvl, plan.levels[0].part, data, requests);

  Table t({"strategy", "ranks", "messages", "total MB", "mean msg (KB)"});
  for (int tpp : {1, 2, 4, 8}) {
    // One partition per process is the thread-to-thread layout.
    const bool t2t = tpp == 1;
    core::ExchangePlan xplan(requests,
                             {t2t ? core::ExchangeStrategy::ThreadToThread
                                  : core::ExchangeStrategy::MasterThread,
                              tpp});
    xplan.exchange(data);
    const core::ExchangeStats& st = xplan.stats();
    char name[64];
    std::snprintf(name, sizeof(name), "master-thread, %d threads (Fig 7b)",
                  tpp);
    t.add_row({t2t ? "thread-to-thread (Fig 7a)" : name,
               std::to_string(nparts / tpp),
               std::to_string(st.messages),
               Table::num(double(st.bytes) / 1e6, 3),
               Table::num(st.messages
                              ? double(st.bytes) / double(st.messages) / 1024
                              : 0.0,
                          2)});
  }
  t.print();
  rep.table("strategies", t);

  // The persistent plan per strategy: build once, exchange allocation-free.
  const int kExchanges = 50;
  Table pt({"schedule", "build (ms)", "exchange (us)", "allocs/exchange",
            "messages", "total MB"});
  struct Config {
    const char* name;
    core::ExchangePlanOptions opt;
  };
  const Config configs[] = {
      {"thread-to-thread (Fig 7a)",
       {core::ExchangeStrategy::ThreadToThread, 1}},
      {"master-thread, 4 threads (Fig 7b)",
       {core::ExchangeStrategy::MasterThread, 4}},
  };
  for (const Config& cfg : configs) {
    WallTimer build_timer;
    core::ExchangePlan xplan(requests, cfg.opt);
    const double build_ms = build_timer.seconds() * 1e3;
    xplan.exchange(data);  // warm-up (first-use obs registries)
    const std::uint64_t a0 = g_alloc_count.load();
    WallTimer timer;
    for (int e = 0; e < kExchanges; ++e) xplan.exchange(data);
    const double plan_us = timer.seconds() * 1e6 / kExchanges;
    const std::uint64_t plan_allocs =
        (g_alloc_count.load() - a0) / std::uint64_t(kExchanges);
    char name[96];
    std::snprintf(name, sizeof(name), "plan %s", cfg.name);
    pt.add_row(
        {name, Table::num(build_ms, 3), Table::num(plan_us, 1),
         std::to_string(plan_allocs),
         std::to_string(xplan.messages_per_exchange()),
         Table::num(double(xplan.stats().bytes) /
                        double(xplan.stats().exchanges) / 1e6,
                    3)});
  }
  pt.print();
  rep.table("plan", pt);

  // Comm observatory: wait-state cost per exchange, per strategy. This
  // pass runs with span recording ON (the timing/alloc passes above run
  // with it off, so instrumentation overhead never contaminates those
  // rows).
  // "wait/exchange (us)" is Timing-gated by the perf gate; "messages" is
  // exact.
  Table ct({"strategy", "messages", "wait/exchange (us)", "late-send %",
            "retransmits"});
  for (const Config& cfg : configs) {
    core::ExchangePlanOptions opt = cfg.opt;
    opt.level = 0;
    core::ExchangePlan xplan(requests, opt);
    xplan.exchange(data);  // warm-up (first-use obs registries)
    obs::reset_trace();
    obs::set_enabled(true);
    for (int e = 0; e < kExchanges; ++e) xplan.exchange(data);
    obs::set_enabled(false);
    const obs::CommReport cr =
        obs::build_comm_report(obs::phase_events_since());
    std::uint64_t msgs = 0;
    for (const obs::CommGroup& g : cr.groups) msgs += g.messages;
    char name[96];
    std::snprintf(name, sizeof(name), "plan %s", cfg.name);
    ct.add_row(
        {name, std::to_string(msgs / std::uint64_t(kExchanges)),
         Table::num(cr.wait_s * 1e6 / kExchanges, 2),
         Table::num(cr.wait_s > 0 ? 100.0 * cr.late_sender_s / cr.wait_s : 0.0,
                    1),
         std::to_string(cr.retransmits)});
    obs::reset_trace();
  }
  ct.print();
  rep.table("comm_observatory", ct);

  // Flight-recorder ablation: the distributed flight recorder
  // (obs/shard.hpp) arms the same span recorder the observatory pass
  // uses, plus a durable-rewrite autoflush thread that keeps rewriting
  // the whole shard through fsync+rename on a short period. This series
  // prices that against the recorder-off exchange on the same plan —
  // the cost a forked rank pays for leaving a mergeable shard behind.
  // "exchange (us)" is Timing-gated by the perf gate; "messages" is
  // exact.
  Table ft({"mode", "messages", "exchange (us)"});
  for (const bool armed : {false, true}) {
    core::ExchangePlanOptions opt = configs[0].opt;
    opt.level = 0;
    core::ExchangePlan xplan(requests, opt);
    xplan.exchange(data);  // warm-up (first-use obs registries)
    std::optional<obs::FlightRecorder> rec;
    if (armed) {
      obs::ShardOptions so;
      const char* tmp = std::getenv("TMPDIR");
      so.path = std::string(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") +
                "/columbia_bench_flight_recorder.rank0.round0.jsonl";
      so.backend = "local";
      so.flush_ms = 25;  // durable rewrites land mid-measurement
      rec.emplace(so);
    }
    WallTimer timer;
    for (int e = 0; e < kExchanges; ++e) xplan.exchange(data);
    const double us = timer.seconds() * 1e6 / kExchanges;
    if (rec) {
      rec->finalize(obs::ShardClock{});
      std::remove(rec->path().c_str());
    }
    obs::set_enabled(false);
    obs::reset_trace();
    ft.add_row({armed ? "recorder on (t2t)" : "recorder off (t2t)",
                std::to_string(xplan.messages_per_exchange()),
                Table::num(us, 1)});
  }
  ft.print();
  rep.table("flight_recorder", ft);

  // Overlap ablation (interior/boundary split, Figs. 16-19): two group
  // members on a real wire (core::LocalGroup), each owning half the
  // partitions, with member 0 carrying twice the interior compute — the
  // load imbalance whose arrival wait the split post()/finish() path
  // hides. Each row drives the identical schedule either blocking
  // (exchange(); compute) or split (post(); compute; finish()).
  //
  //   "arrival wait (us)"  attributed halo.xchg.wait time per iteration:
  //                      how long receivers blocked for data that was not
  //                      yet on the wire. Blocking mode pays the
  //                      straggler's lateness here; split mode posts
  //                      before computing, so frames arrive while the
  //                      fast member still computes. Informational (small
  //                      absolute values under a relative gate would
  //                      amplify CI noise) — this is the per-exchange
  //                      wait the split path reduces.
  //   "halo stall (us)"  wall time inside the halo calls themselves (max
  //                      over members) — bounded below by the ack
  //                      rendezvous both modes share; informational.
  //   "exchange (us)"    end-to-end per iteration (compute + protocol),
  //                      Timing-gated; "messages" is the schedule's wire
  //                      cost, Exact-gated.
  //
  // The coarse rows (level 1) repeat the ablation on the next multigrid
  // level's halo pattern: tiny partitions leave little interior compute
  // to hide behind, which is the Fig. 19 agglomeration motivation.
  core::PartitionData data1;
  core::RequestLists requests1;
  make_halo(levels[1], plan.levels[1].part, data1, requests1);

  struct MemberResult {
    double iter_s = 0;
    double stall_s = 0;
    double acc = 0;  // defeats dead-code elimination of the compute loop
  };
  static volatile double g_sink = 0;
  const int kOverlapIters = 20;

  auto run_overlap = [&](const core::RequestLists& reqs,
                         const core::PartitionData& dat,
                         core::ExchangeStrategy strat, int tpp, int level,
                         bool split, int reps_base, MemberResult out[2]) {
    core::LocalGroup group(2);
    std::barrier<> sync(3);
    auto compute = [&dat](int r, int reps) {
      real_t acc = 0;
      for (int rep = 0; rep < reps; ++rep)
        for (std::size_t p = std::size_t(r); p < dat.size(); p += 2)
          for (real_t x : dat[p]) acc += x * real_t(1.0000001);
      return acc;
    };
    auto member = [&](int r) {
      auto ep = group.endpoint(r);
      core::ExchangePlanOptions opt;
      opt.strategy = strat;
      opt.threads_per_process = tpp;
      opt.level = level;
      opt.transport = ep.get();
      core::ExchangePlan xplan(reqs, opt);
      // Member 0 is the deliberately imbalanced member. Global channel
      // order starts at member 0's send channels, so the fast member's
      // first wire act is RECEIVING member 0's data: blocking mode pays
      // the straggler's compute as attributed arrival wait, the split
      // mode's early post() hides it.
      const int reps = r == 0 ? reps_base * 2 : reps_base;
      real_t acc = real_t(xplan.exchange(dat)[0].empty() ? 0 : 1);  // warm-up
      sync.arrive_and_wait();  // main resets + enables span recording
      sync.arrive_and_wait();
      WallTimer iter_timer;
      for (int i = 0; i < kOverlapIters; ++i) {
        if (split) {
          WallTimer t1;
          xplan.post(dat);
          out[r].stall_s += t1.seconds();
          acc += compute(r, reps);
          WallTimer t2;
          xplan.finish();
          out[r].stall_s += t2.seconds();
        } else {
          WallTimer t1;
          xplan.exchange(dat);
          out[r].stall_s += t1.seconds();
          acc += compute(r, reps);
        }
      }
      out[r].iter_s = iter_timer.seconds();
      out[r].acc = double(acc);
      sync.arrive_and_wait();  // main stops recording; plans still alive
    };
    std::thread t0(member, 0), t1(member, 1);
    sync.arrive_and_wait();
    obs::reset_trace();
    obs::set_enabled(true);
    sync.arrive_and_wait();
    sync.arrive_and_wait();
    obs::set_enabled(false);
    t0.join();
    t1.join();
    g_sink = g_sink + out[0].acc + out[1].acc;
  };

  Table ot({"mode", "messages", "exchange (us)", "arrival wait (us)",
            "halo stall (us)", "retransmits"});
  struct OverlapConfig {
    const char* name;
    core::ExchangeStrategy strat;
    int tpp;
    int level;
    int reps;  // interior compute per iteration; L1 keeps the realistic
               // coarse-level ratio (little compute to hide behind)
  };
  const OverlapConfig ocfgs[] = {
      {"L0 thread-to-thread", core::ExchangeStrategy::ThreadToThread, 1, 0,
       400},
      {"L0 master-thread, 4 threads", core::ExchangeStrategy::MasterThread, 4,
       0, 400},
      {"L1 thread-to-thread", core::ExchangeStrategy::ThreadToThread, 1, 1,
       50},
      {"L1 master-thread, 4 threads", core::ExchangeStrategy::MasterThread, 4,
       1, 50},
  };
  for (const OverlapConfig& cfg : ocfgs) {
    const core::RequestLists& reqs = cfg.level == 0 ? requests : requests1;
    const core::PartitionData& dat = cfg.level == 0 ? data : data1;
    // Schedule wire cost is a build-time property; read it off a local
    // throwaway plan rather than racing the member threads for theirs.
    const std::uint64_t msgs =
        core::ExchangePlan(reqs, {cfg.strat, cfg.tpp}).messages_per_exchange();
    for (const bool split : {false, true}) {
      MemberResult res[2] = {};
      run_overlap(reqs, dat, cfg.strat, cfg.tpp, cfg.level, split, cfg.reps,
                  res);
      const obs::CommReport cr =
          obs::build_comm_report(obs::phase_events_since());
      obs::reset_trace();
      char name[96];
      std::snprintf(name, sizeof(name), "%s %s", cfg.name,
                    split ? "split" : "blocking");
      ot.add_row(
          {name, std::to_string(msgs),
           Table::num(std::max(res[0].iter_s, res[1].iter_s) * 1e6 /
                          kOverlapIters,
                      1),
           Table::num(cr.wait_s * 1e6 / kOverlapIters, 1),
           Table::num(std::max(res[0].stall_s, res[1].stall_s) * 1e6 /
                          kOverlapIters,
                      1),
           std::to_string(cr.retransmits)});
    }
  }
  ot.print();
  rep.table("overlap_ablation", ot);

  std::printf(
      "\npaper shape check: the master-thread strategy issues far fewer,\n"
      "larger messages (latency amortization), at the cost of a\n"
      "(thread-)sequential send/receive phase modeled in perf/.\n"
      "plan rows amortize the one-time build over steady-state exchanges\n"
      "and must show zero allocations per exchange.\n"
      "overlap rows: the split path's \"halo stall\" must undercut the\n"
      "blocking path's on the fine level (claimed overlap > 0), while the\n"
      "coarse level shows why agglomeration, not overlap, is the coarse\n"
      "remedy.\n");
  return 0;
}
