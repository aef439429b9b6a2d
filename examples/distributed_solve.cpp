// Distributed guarded RANS solve over a pluggable transport (paper
// Figs. 16-18: the same solve over different interconnects).
//
// Every group member runs the identical SPMD-replicated schedule: the full
// wing solver plus one wire halo exchange per multigrid cycle, carrying the
// live fine-grid densities over the chosen backend. The wire protocol
// (checksummed frames, deadline timeouts, bounded retransmit) guarantees
// delivered ghost values are bit-identical to the in-process exchange, so
// the residual/CL/CD history written by --history must match byte for byte
// across threads, shm, and tcp — with or without injected transport faults.
//
//   --backend threads|shm|tcp  wire layer (default threads)
//   --ranks N                  group size (default 2)
//   --strategy t2t|master      Fig. 7 exchange strategy (default t2t)
//   --tpp N                    threads per process for master (default 2)
//   --cycles N --orders X      convergence budget (default 40, 3 orders)
//   --checkpoint PATH          durable checkpoint; rank 0 writes, every
//                              rank resumes from it after a relaunch
//   --history PATH             rank 0 writes residuals + CL/CD (%.17g)
//   --faults SPEC              arm COLUMBIA_FAULTS fault injection
//   --faults-help              print the COLUMBIA_FAULTS grammar and exit
//   --relaunch N               recovery budget for dead/hung ranks
//   --overlap 0|1              split post()/finish() exchanges riding the
//                              multigrid level hooks (default 1)
//   --agglomerate N            min level nodes per active rank; coarse
//                              levels below it shrink their rank set
//                              (paper Fig. 19; 0 disables, default 64)
//   --trace PATH               record solver + halo.xchg spans and cycle
//                              records into a Chrome trace (feed to
//                              `columbia_report [comm]`). Works on all
//                              three backends: the forked backends arm a
//                              per-rank flight recorder (durable
//                              PATH.shards.rank<r>.round<k>.jsonl telemetry
//                              shards, clock-synced against member 0), and
//                              the launcher merges the gathered shards into
//                              one clock-aligned multi-rank trace at PATH
//
// Every multigrid level runs its own wire exchange per visit, posted on
// entry to the level and finished after its pre-smoother (the split rides
// core::MultigridDriver level hooks, so the exchange flies under the
// smoother). Coarse levels whose partitions fall below --agglomerate
// nodes/rank run on a shrunken active-rank set (idle members park), and a
// dedicated transfer plan with differing sender/receiver active sets
// carries the fine->coarse restriction pattern across the rank-set seam.
// All of it is read-only validation traffic, so the history artifact
// stays byte-identical across backends, strategies, overlap modes, and
// agglomeration settings.
//
// Recovery semantics: a rank that dies (conn_reset exhausting the retry
// budget, a crash) or hangs (peer_hang silencing its heartbeat) fails its
// round; the launcher kills the group, strips peer_hang (the relaunch IS
// the replacement node), re-forks, and everyone resumes from the last
// durable checkpoint. Status "recovered" on success after >= 1 relaunch.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/exchange_plan.hpp"
#include "core/multigrid.hpp"
#include "core/transport.hpp"
#include "mesh/builders.hpp"
#include "nsu3d/partitioned.hpp"
#include "nsu3d/solver.hpp"
#include "obs/obs.hpp"
#include "obs/shard.hpp"
#include "resil/faults.hpp"
#include "resil/guard.hpp"
#include "smp/pool.hpp"
#include "smp/process_group.hpp"
#include "support/durable.hpp"

using namespace columbia;

namespace {

struct Cli {
  std::string backend = "threads";
  int ranks = 2;
  core::ExchangeStrategy strategy = core::ExchangeStrategy::ThreadToThread;
  int tpp = 2;
  int cycles = 40;
  double orders = 3.0;
  std::string checkpoint;
  std::string history;
  std::string faults;
  int relaunch = 2;
  bool overlap = true;
  index_t agglomerate = 64;
  std::string trace;
};

void usage() {
  std::printf(
      "distributed_solve: SPMD guarded solve over a pluggable transport\n"
      "  --backend threads|shm|tcp  --ranks N  --strategy t2t|master\n"
      "  --tpp N  --cycles N  --orders X  --checkpoint PATH\n"
      "  --history PATH  --faults SPEC  --relaunch N\n"
      "  --overlap 0|1  --agglomerate N (min nodes/rank, 0 = off)\n"
      "  --trace PATH   Chrome trace of the spans and cycle records, any\n"
      "                 backend (forked ranks record durable per-rank\n"
      "                 telemetry shards, clock-synced and merged into\n"
      "                 PATH by the launcher)\n"
      "  --faults-help              print the COLUMBIA_FAULTS grammar\n");
}

/// Halo pattern for the wire: the fine level cut into contiguous node
/// blocks. 8 partitions divide evenly by every supported --tpp, and the
/// modulo rank->member mapping spreads the channels over any group size.
constexpr index_t kHaloParts = 8;

int solve_rank(int rank, core::Transport& t, const Cli& cli) {
  mesh::WingMeshSpec spec;
  spec.n_wrap = 24;
  spec.n_span = 4;
  spec.n_normal = 10;
  spec.wall_spacing = 1e-4;
  const mesh::UnstructuredMesh wing = mesh::make_wing_mesh(spec);

  euler::FlowConditions conditions;
  conditions.mach = 0.75;
  conditions.alpha_deg = 0.0;
  conditions.reynolds = 3.0e6;

  nsu3d::Nsu3dOptions opt;
  opt.mg_levels = 3;
  opt.cycle = nsu3d::CycleType::W;
  opt.smoother = nsu3d::SmootherKind::LineImplicit;
  nsu3d::Nsu3dSolver solver(wing, conditions, opt);

  const int nl = solver.num_levels();

  // Per-level active-rank schedule (paper Fig. 19): a coarse level keeps
  // only enough group members to give each >= --agglomerate nodes.
  std::vector<index_t> level_nodes;
  for (int l = 0; l < nl; ++l) level_nodes.push_back(solver.level(l).num_nodes);
  const core::AgglomerationSchedule sched = core::AgglomerationSchedule::build(
      level_nodes, t.group_size(), cli.agglomerate);
  if (rank == 0) {
    for (int l = 0; l < nl; ++l)
      std::printf("agglomeration: level %d nodes=%lld active=%d/%d%s\n", l,
                  (long long)level_nodes[std::size_t(l)],
                  sched.active[std::size_t(l)], sched.group_size,
                  sched.active[std::size_t(l)] < sched.group_size
                      ? " (agglomerated)"
                      : "");
  }

  core::ExchangePlanOptions xopt;
  xopt.strategy = cli.strategy;
  xopt.threads_per_process =
      cli.strategy == core::ExchangeStrategy::MasterThread ? cli.tpp : 1;
  xopt.transport = &t;
  xopt.wire.deadline_ms = 200;
  xopt.wire.max_attempts = 8;
  xopt.wire.backoff_base_ms = 1;
  xopt.wire.backoff_max_ms = 8;
  xopt.wire.loopback_self = t.group_size() == 1;

  // One wire exchange plan per multigrid level, each on its own (possibly
  // agglomerated) active-rank set, plus the per-level partitioning it runs
  // over. Contiguous node blocks; the modulo rank->member mapping spreads
  // channels over the active members.
  std::vector<std::vector<index_t>> part{std::size_t(nl),
                                         std::vector<index_t>{}};
  std::vector<std::unique_ptr<core::ExchangePlan>> plans;
  for (int l = 0; l < nl; ++l) {
    const index_t nn = level_nodes[std::size_t(l)];
    auto& p = part[std::size_t(l)];
    p.resize(std::size_t(nn));
    for (index_t i = 0; i < nn; ++i) p[std::size_t(i)] = i * kHaloParts / nn;
    core::ExchangePlanOptions lopt = xopt;
    lopt.level = l;
    lopt.active_members = sched.active[std::size_t(l)];
    plans.push_back(std::make_unique<core::ExchangePlan>(
        nsu3d::halo_requests(solver.level(l), p, kHaloParts), lopt));
  }

  // Transfer plan across the rank-set seam between the two coarsest
  // levels: coarse partitions request the fine nodes whose agglomerate
  // lands on them but whose fine owner is another partition (the
  // restriction gather pattern). Sender ranks map through the fine
  // level's active set, receivers through the coarse level's.
  const int lf = nl - 2, lc = nl - 1;
  core::RequestLists xfer_reqs{std::size_t(kHaloParts),
                               std::vector<core::HaloRequest>{}};
  {
    const auto& fpart = part[std::size_t(lf)];
    const auto& cpart = part[std::size_t(lc)];
    const auto& to_coarse = solver.level(lf).to_coarse;
    for (index_t v = 0; v < level_nodes[std::size_t(lf)]; ++v) {
      const index_t fp = fpart[std::size_t(v)];
      const index_t cp = cpart[std::size_t(to_coarse[std::size_t(v)])];
      if (fp != cp) xfer_reqs[std::size_t(cp)].push_back({fp, v});
    }
  }
  core::ExchangePlanOptions xfopt = xopt;
  xfopt.level = lc;
  xfopt.active_members = sched.active[std::size_t(lc)];
  xfopt.sender_active_members = sched.active[std::size_t(lf)];
  core::ExchangePlan xfer_plan(std::move(xfer_reqs), xfopt);

  // Replicated per-partition data: every member carries the full density
  // array of the level, so each rank can check the wire-delivered ghosts
  // against the locally computed expectation — any silent corruption is a
  // hard stop. One buffer per level plan (posted on level entry, finished
  // and validated after the pre-smoother) plus one for the transfer plan.
  std::vector<core::PartitionData> data(
      std::size_t(nl),
      core::PartitionData(std::size_t(kHaloParts), std::vector<real_t>{}));
  core::PartitionData xfer_data(std::size_t(kHaloParts),
                                std::vector<real_t>{});

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
      for (std::size_t k = 0; k < reqs.size(); ++k) {
        const core::HaloRequest& r = reqs[k];
        if (got[p][k] !=
            want[std::size_t(r.from_partition)][std::size_t(r.item)])
          throw std::runtime_error("halo ghost mismatch on rank " +
                                   std::to_string(rank));
      }
    }
  };

  // Split exchange riding the level hooks: post on level entry, compute
  // (the pre-smoother) runs with the frames in flight, finish + validate
  // after. With --overlap 0 each exchange completes inside the begin hook
  // instead — same wire traffic, no compute under it.
  solver.set_level_hooks(
      [&](int l) {
        auto& plan = *plans[std::size_t(l)];
        pack_level(l, data[std::size_t(l)]);
        plan.post(data[std::size_t(l)]);
        if (l == lc) {
          pack_level(lf, xfer_data);
          xfer_plan.post(xfer_data);
        }
        if (!cli.overlap) {
          validate(plan, plan.finish(), data[std::size_t(l)]);
          if (l == lc) validate(xfer_plan, xfer_plan.finish(), xfer_data);
        }
      },
      [&](int l) {
        if (!cli.overlap) return;
        auto& plan = *plans[std::size_t(l)];
        validate(plan, plan.finish(), data[std::size_t(l)]);
        if (l == lc) validate(xfer_plan, xfer_plan.finish(), xfer_data);
      });

  resil::GuardCallbacks cb;
  cb.solver = "nsu3d";
  cb.residual_norm = [&] { return solver.residual_norm(); };
  cb.run_cycle = [&] { return solver.run_cycle(); };
  cb.snapshot = [&](std::uint64_t cycle, std::span<const real_t> history) {
    return solver.make_checkpoint(cycle, history);
  };
  cb.restore = [&](const resil::Checkpoint& c) { solver.restore_checkpoint(c); };

  resil::GuardedSolveOptions gopt;
  gopt.checkpoint_path = cli.checkpoint;
  gopt.checkpoint_interval = 5;
  gopt.resume = true;
  gopt.checkpoint_write = rank == 0;  // single writer, shared resume file
  const resil::GuardedSolveResult gr =
      resil::guarded_solve(gopt, cli.cycles, real_t(cli.orders), cb);
  if (gr.outcome == resil::SolveOutcome::Failed) return 3;
  // Exit grace: keep re-Acking duplicate frames until the wire is quiet,
  // so a peer whose final Ack was destroyed (conn_reset) is not stranded
  // retransmitting to an exited rank.
  for (auto& plan : plans) plan->drain();
  xfer_plan.drain();

  if (rank == 0) {
    const nsu3d::Forces f = solver.integrate_forces();
    std::printf("[rank 0] solve %s: %.3e -> %.3e in %zu cycles, "
                "CL=%.4f CD=%.4f%s\n",
                resil::outcome_name(gr.outcome), double(gr.history.front()),
                double(gr.history.back()), gr.history.size() - 1,
                double(f.cl), double(f.cd),
                gr.resumed ? " (resumed from checkpoint)" : "");
    if (!cli.history.empty()) {
      // Byte-stable history artifact: the soak script cmp's this file
      // across backends, so it must not mention the backend or strategy.
      std::string out;
      char buf[64];
      for (const real_t r : gr.history) {
        std::snprintf(buf, sizeof(buf), "%.17g\n", double(r));
        out += buf;
      }
      std::snprintf(buf, sizeof(buf), "CL %.17g\nCD %.17g\n", double(f.cl),
                    double(f.cd));
      out += buf;
      if (!support::durable_write_file(cli.history, out)) {
        std::fprintf(stderr, "history: cannot write %s\n",
                     cli.history.c_str());
        return 4;
      }
    }
  }
  return 0;
}

void print_group(const char* status, const core::TransportCounters& c,
                 int relaunches) {
  std::printf("status: %s (relaunches=%d)\n", status, relaunches);
  std::printf("resil.transport:");
  for (int k = 0; k < core::kNumTransportCounters; ++k)
    std::printf(" %s=%llu",
                core::transport_counter_name(core::TransportCounter(k)),
                (unsigned long long)c.v[k]);
  std::printf("\n");
}

/// In-process backend: one std::thread per rank over LocalGroup mailboxes,
/// with the same relaunch-on-failure loop ProcessGroup::run_recovering
/// applies to forked ranks. peer_hang on this backend throws instead of
/// hanging (the LocalTransport hang hook), so recovery is still exercised.
int run_threads(const Cli& cli) {
  // Rank threads each drive the solver kernels themselves; a 1-thread pool
  // takes the inline serial path, which is safe from concurrent callers
  // and bit-identical to any other pool size.
  if (cli.ranks > 1) smp::ThreadPool::global().resize(1);
  core::TransportCounters total;
  int relaunches = 0;
  bool ok = false;
  for (int round = 0; round <= cli.relaunch && !ok; ++round) {
    if (round > 0) {
      resil::FaultInjector& inj = resil::FaultInjector::global();
      resil::FaultSpec spec = inj.spec();
      spec.rate[std::size_t(resil::FaultKind::PeerHang)] = 0.0;
      inj.configure(spec);
      ++relaunches;
    }
    core::LocalGroup group(cli.ranks);
    std::vector<std::unique_ptr<core::Transport>> eps;
    for (int r = 0; r < cli.ranks; ++r) eps.push_back(group.endpoint(r));
    std::vector<int> codes(std::size_t(cli.ranks), 0);
    std::vector<std::thread> threads;
    for (int r = 0; r < cli.ranks; ++r)
      threads.emplace_back([&, r] {
        try {
          codes[std::size_t(r)] = solve_rank(r, *eps[std::size_t(r)], cli);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "[rank %d] uncaught: %s\n", r, e.what());
          codes[std::size_t(r)] = smp::ProcessGroup::kExitUncaught;
        }
      });
    for (auto& th : threads) th.join();
    ok = true;
    for (const int c : codes) ok = ok && c == 0;
    for (const auto& ep : eps)
      for (int c = 0; c < core::kNumTransportCounters; ++c)
        total.v[c] += ep->counters().v[c];
  }
  print_group(!ok ? "failed" : relaunches > 0 ? "recovered" : "ok", total,
              relaunches);
  return ok ? 0 : 1;
}

/// Forked backends: under --trace every rank records a durable telemetry
/// shard next to the requested trace path, gathered into `shards`.
int run_processes(const Cli& cli, smp::GroupBackend backend,
                  std::vector<obs::TelemetryShard>& shards) {
  smp::ProcessGroupOptions opts;
  opts.ranks = cli.ranks;
  opts.backend = backend;
  if (!cli.trace.empty()) opts.telemetry_base = cli.trace + ".shards";
  int relaunches = 0;
  const smp::GroupResult res = smp::ProcessGroup::run_recovering(
      opts, [&](int rank, core::Transport& t) { return solve_rank(rank, t, cli); },
      cli.relaunch, &relaunches);
  for (std::size_t r = 0; r < res.members.size(); ++r) {
    const smp::MemberReport& m = res.members[r];
    std::printf("[rank %zu] %s exit=%d heartbeats=%llu\n", r,
                m.hung ? "hung" : m.signaled ? "signaled" : "exited",
                m.exit_code, (unsigned long long)m.heartbeats);
  }
  print_group(!res.ok ? "failed" : relaunches > 0 ? "recovered" : "ok",
              res.total, relaunches);

  for (const std::string& path : res.shards) {
    obs::TelemetryShard s;
    std::string err;
    if (obs::read_shard_file(path, s, &err))
      shards.push_back(std::move(s));
    else
      std::fprintf(stderr, "trace: skipping shard %s: %s\n", path.c_str(),
                   err.c_str());
  }
  return res.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--faults-help") == 0) {
      std::puts(resil::fault_grammar_help().c_str());
      return 0;
    }
    if (std::strcmp(argv[i], "--help") == 0) {
      usage();
      return 0;
    }
  }
  for (int i = 1; i + 1 < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--backend") == 0) cli.backend = argv[i + 1];
    if (std::strcmp(a, "--ranks") == 0) cli.ranks = std::atoi(argv[i + 1]);
    if (std::strcmp(a, "--strategy") == 0) {
      if (std::strcmp(argv[i + 1], "master") == 0)
        cli.strategy = core::ExchangeStrategy::MasterThread;
      else if (std::strcmp(argv[i + 1], "t2t") != 0) {
        std::fprintf(stderr, "unknown --strategy '%s'\n", argv[i + 1]);
        return 1;
      }
    }
    if (std::strcmp(a, "--tpp") == 0) cli.tpp = std::atoi(argv[i + 1]);
    if (std::strcmp(a, "--cycles") == 0) cli.cycles = std::atoi(argv[i + 1]);
    if (std::strcmp(a, "--orders") == 0) cli.orders = std::atof(argv[i + 1]);
    if (std::strcmp(a, "--checkpoint") == 0) cli.checkpoint = argv[i + 1];
    if (std::strcmp(a, "--history") == 0) cli.history = argv[i + 1];
    if (std::strcmp(a, "--faults") == 0) cli.faults = argv[i + 1];
    if (std::strcmp(a, "--relaunch") == 0) cli.relaunch = std::atoi(argv[i + 1]);
    if (std::strcmp(a, "--overlap") == 0) cli.overlap = std::atoi(argv[i + 1]) != 0;
    if (std::strcmp(a, "--agglomerate") == 0)
      cli.agglomerate = index_t(std::atoll(argv[i + 1]));
    if (std::strcmp(a, "--trace") == 0) cli.trace = argv[i + 1];
  }
  if (cli.ranks < 1 || cli.tpp < 1 || kHaloParts % cli.tpp != 0) {
    std::fprintf(stderr, "bad --ranks/--tpp (tpp must divide %d)\n",
                 int(kHaloParts));
    return 1;
  }
  if (!cli.faults.empty()) {
    try {
      resil::FaultInjector::global().configure(
          resil::parse_fault_spec(cli.faults));
      std::printf("faults: armed with '%s'\n", cli.faults.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "faults: %s\n", e.what());
      return 1;
    }
  }

  std::printf(
      "distributed_solve: backend=%s ranks=%d strategy=%s overlap=%d "
      "agglomerate=%lld\n",
      cli.backend.c_str(), cli.ranks,
      cli.strategy == core::ExchangeStrategy::MasterThread ? "master" : "t2t",
      cli.overlap ? 1 : 0, (long long)cli.agglomerate);
  if (!cli.trace.empty()) obs::set_enabled(true);
  // Fork discipline: the process backends fork BEFORE any solver work has
  // touched the global thread pool; children build their own pools.
  int rc = 1;
  std::vector<obs::TelemetryShard> shards;
  if (cli.backend == "threads") {
    rc = run_threads(cli);
    smp::ThreadPool::global().publish_stats();
    shards.push_back(obs::live_shard());
  } else if (cli.backend == "shm") {
    rc = run_processes(cli, smp::GroupBackend::Shm, shards);
  } else if (cli.backend == "tcp") {
    rc = run_processes(cli, smp::GroupBackend::Tcp, shards);
  } else {
    std::fprintf(stderr, "unknown --backend '%s'\n", cli.backend.c_str());
    usage();
    return 1;
  }
  // Every backend ends in one merged trace: the forked ranks' shards, or
  // this process's own recording.
  if (!cli.trace.empty()) obs::write_trace(cli.trace, std::move(shards));
  return rc;
}
