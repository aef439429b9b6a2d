// Distributed flight recorder: the NTP-style clock-offset estimator under
// synthetic skew and asymmetric delay, shard round-trip and truncated-tail
// tolerance, clock-aligned multi-shard merging (post<->wait pairing must
// survive offset correction and never cross a relaunch seam), and the
// fork-based shm/tcp end-to-end story: ProcessGroup-armed recorders whose
// gathered shards merge into a non-empty comm report, a killed rank
// leaving a truncated-but-mergeable shard, and exchanged values staying
// bit-identical with the recorder on or off.
//
// Fork discipline as in test_transport: no global thread pool before
// forking, raw exchange scenarios only, and deliberately NOT tsan (forked
// children carry live autoflush threads).
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/clock_sync.hpp"
#include "core/exchange_plan.hpp"
#include "core/transport.hpp"
#include "halo_oracle.hpp"
#include "obs/comm_report.hpp"
#include "obs/obs.hpp"
#include "obs/report_cli.hpp"
#include "obs/shard.hpp"
#include "smp/process_group.hpp"

namespace columbia {
namespace {

/// Restores observability-off state when a test exits.
struct ObsGuard {
  ~ObsGuard() {
    obs::set_enabled(false);
    obs::reset_trace();
    obs::reset_metrics();
  }
};

// --- clock-offset estimator (core/clock_sync.hpp) --------------------------

/// One four-timestamp exchange against a server whose clock leads the
/// client's by `skew`, with `fwd`/`back` one-way path delays and `serve`
/// ns of server-side processing.
core::ClockSample sample_at(std::int64_t t0, std::int64_t skew,
                            std::int64_t fwd, std::int64_t back,
                            std::int64_t serve) {
  core::ClockSample s;
  s.t0 = t0;
  s.t1 = t0 + fwd + skew;  // server receipt, on the server's clock
  s.t2 = s.t1 + serve;
  s.t3 = s.t2 - skew + back;  // client return, back on the client's clock
  return s;
}

TEST(ClockEstimator, RecoversSkewExactlyUnderSymmetricDelay) {
  const std::int64_t skew = 5'000'000;  // server 5ms ahead
  std::vector<core::ClockSample> burst;
  for (int i = 0; i < 8; ++i)
    burst.push_back(
        sample_at(1'000'000 * (i + 1), skew, 100'000, 100'000, 30'000));
  const core::ClockEstimate est = core::estimate_clock_offset(burst);
  EXPECT_TRUE(est.synced);
  EXPECT_EQ(est.samples, 8);
  // Symmetric path delay and server processing both cancel exactly.
  EXPECT_EQ(est.offset_ns, skew);
  EXPECT_EQ(est.rtt_ns, 200'000);
}

TEST(ClockEstimator, MinRttSampleWinsUnderAsymmetricQueueing) {
  const std::int64_t skew = -3'000'000;  // server 3ms behind
  std::vector<core::ClockSample> burst;
  // Seven samples contaminated by 2ms of return-path queueing: each is
  // biased by (fwd - back) / 2 = -950us. One clean symmetric sample.
  for (int i = 0; i < 7; ++i)
    burst.push_back(
        sample_at(1'000'000 * (i + 1), skew, 100'000, 2'000'000, 50'000));
  burst.push_back(sample_at(9'000'000, skew, 100'000, 100'000, 50'000));
  const core::ClockEstimate est = core::estimate_clock_offset(burst);
  EXPECT_TRUE(est.synced);
  EXPECT_EQ(est.samples, 8);
  // The estimate comes from the minimum-RTT survivor, not an average —
  // asymmetric queueing on the other seven never touches it.
  EXPECT_EQ(est.offset_ns, skew);
  EXPECT_EQ(est.rtt_ns, 200'000);
}

TEST(ClockEstimator, DiscardsSteppedClockSamplesAndEmptyBursts) {
  // A clock stepped mid-exchange yields rtt < 0; such samples must not
  // poison the estimate.
  std::vector<core::ClockSample> burst;
  core::ClockSample stepped;
  stepped.t0 = 1'000'000;
  stepped.t1 = 1'050'000;
  stepped.t2 = 1'060'000;
  stepped.t3 = 900'000;  // returned "before" it left
  burst.push_back(stepped);
  burst.push_back(sample_at(2'000'000, 7'000, 10'000, 10'000, 5'000));
  const core::ClockEstimate est = core::estimate_clock_offset(burst);
  EXPECT_TRUE(est.synced);
  EXPECT_EQ(est.samples, 1);
  EXPECT_EQ(est.offset_ns, 7'000);

  EXPECT_FALSE(core::estimate_clock_offset({}).synced);
  EXPECT_FALSE(core::estimate_clock_offset({stepped}).synced);
}

// --- per-rank path spelling -------------------------------------------------

TEST(ShardPaths, RankSuffixInsertsBeforeFinalExtension) {
  EXPECT_EQ(obs::shard_file_path("trace.json.shards", 2, 1),
            "trace.json.shards.rank2.round1.jsonl");
}

// --- shard round-trip and truncated-tail tolerance --------------------------

TEST(FlightRecorder, ShardRoundTripsThroughParse) {
  ObsGuard guard;
  const std::string shard_path = testing::TempDir() + "fr_roundtrip.jsonl";
  obs::ShardOptions so;
  so.path = shard_path;
  so.rank = 1;
  so.ranks = 2;
  so.round = 3;
  so.backend = "shm";
  so.fault_spec = "seed=9,msg_drop=0.1";
  so.flush_ms = 0;  // explicit flushes only
  obs::FlightRecorder rec(so);
  {
    obs::SpanGuard post("halo.xchg.post", {{"rank", 0},
                                           {"nbr", 1},
                                           {"level", 0},
                                           {"strat", 0},
                                           {"bytes", 4096}});
  }
  obs::CycleRecord cr;
  cr.solver = "nsu3d";
  cr.solve_id = 5;
  cr.cycle = 1;
  cr.residual = 0.25;
  obs::emit_cycle(cr);
  obs::counter("resil.recover.rollback").add(3);
  obs::gauge("pool.threads").set(6);
  // Raw-ns clock fields must round-trip exactly even past 2^53 (they are
  // serialized as JSON strings, never doubles).
  obs::ShardClock clock;
  clock.synced = true;
  clock.offset_ns = (std::int64_t(1) << 60) + 7;
  clock.rtt_ns = 4242;
  clock.samples = 8;
  rec.set_clock(clock);
  ASSERT_TRUE(rec.finalize(clock));

  obs::TelemetryShard s;
  std::string err;
  ASSERT_TRUE(obs::read_shard_file(shard_path, s, &err)) << err;
  EXPECT_EQ(s.rank, 1);
  EXPECT_EQ(s.ranks, 2);
  EXPECT_EQ(s.round, 3);
  EXPECT_EQ(s.pid, std::int64_t(::getpid()));
  EXPECT_EQ(s.backend, "shm");
  EXPECT_EQ(s.fault_spec, "seed=9,msg_drop=0.1");
  EXPECT_FALSE(s.truncated);
  EXPECT_GE(s.flushes, 1);
  EXPECT_TRUE(s.clock.synced);
  EXPECT_EQ(s.clock.offset_ns, (std::int64_t(1) << 60) + 7);
  EXPECT_EQ(s.clock.rtt_ns, 4242);
  EXPECT_EQ(s.clock.samples, 8);
  ASSERT_EQ(s.events.size(), 2u);  // the span's B and E
  EXPECT_EQ(s.events[0].name, "halo.xchg.post");
  EXPECT_EQ(s.events[0].bytes, 4096);
  EXPECT_EQ(s.events[0].round, 3);  // events inherit the header round
  ASSERT_EQ(s.conv.size(), 1u);
  EXPECT_EQ(s.conv[0].solver, "nsu3d");
  EXPECT_EQ(s.conv[0].solve_id, 5u);
  EXPECT_EQ(s.conv[0].residual, 0.25);
  // The whole registry snapshot of the last flush, not only pool.threads.
  EXPECT_EQ(s.metrics.counters.at("resil.recover.rollback"), 3u);
  EXPECT_EQ(s.pool_threads(), 6);
}

TEST(FlightRecorder, TruncatedTailStillParsesAsMergeableShard) {
  ObsGuard guard;
  const std::string shard_path = testing::TempDir() + "fr_truncated.jsonl";
  obs::ShardOptions so;
  so.path = shard_path;
  so.backend = "tcp";
  so.flush_ms = 0;
  obs::FlightRecorder rec(so);
  { obs::SpanGuard sp("halo.xchg.wait", {{"rank", 1}, {"nbr", 0}}); }
  obs::ShardClock clock;
  clock.synced = true;
  ASSERT_TRUE(rec.finalize(clock));

  std::ifstream is(shard_path);
  std::stringstream ss;
  ss << is.rdbuf();
  const std::string text = ss.str();
  obs::TelemetryShard whole;
  ASSERT_TRUE(obs::parse_shard(text, whole));
  EXPECT_FALSE(whole.truncated);
  // Chop the footer (and then some) off mid-line: exactly what a rank
  // killed mid-rewrite leaves behind.
  const std::string cut = text.substr(0, text.size() * 2 / 3);
  obs::TelemetryShard s;
  ASSERT_TRUE(obs::parse_shard(cut, s));
  EXPECT_TRUE(s.truncated);
  EXPECT_FALSE(s.events.empty());
  // Merging a lone truncated shard must still work.
  const obs::MergedTelemetry m = obs::merge_shards({s});
  EXPECT_EQ(m.ranks, 1);
  EXPECT_FALSE(m.events.empty());
}

// --- clock-aligned merging --------------------------------------------------

obs::TelemetryShard synthetic_shard(int rank, int round,
                                    std::uint64_t base_ns,
                                    std::int64_t offset_ns) {
  obs::TelemetryShard s;
  s.rank = rank;
  s.ranks = 2;
  s.round = round;
  s.backend = "shm";
  s.git_sha = "cafe01";
  s.build_type = "Release";
  s.truncated = false;
  s.clock_base_ns = base_ns;
  s.clock.synced = true;
  s.clock.offset_ns = offset_ns;
  s.clock.samples = 8;
  return s;
}

void add_span(obs::TelemetryShard& s, const char* name, double b_us,
              double e_us, std::int64_t rank, std::int64_t nbr,
              std::int64_t bytes) {
  obs::PhaseEvent b;
  b.name = name;
  b.phase = 'B';
  b.ts_us = b_us;
  b.level = 0;
  b.strat = 0;
  b.rank = rank;
  b.nbr = nbr;
  b.bytes = bytes;
  b.round = s.round;
  obs::PhaseEvent e;
  e.name = name;
  e.phase = 'E';
  e.ts_us = e_us;
  e.round = s.round;
  s.events.push_back(b);
  s.events.push_back(e);
}

/// The matched-message count over every group of a report.
std::uint64_t matched_messages(const obs::CommReport& r) {
  std::uint64_t n = 0;
  for (const obs::CommGroup& g : r.groups) n += g.messages;
  return n;
}

TEST(ShardMerge, PostWaitPairingSurvivesOffsetCorrection) {
  // Rank 1's steady clock reads 1s "later" than rank 0's for the same
  // instant; clock sync measured offset_ns = -1s (member 0's clock minus
  // rank 1's). After correction both shards share one timeline.
  obs::TelemetryShard a = synthetic_shard(0, 0, 1'000'000'000, 0);
  obs::TelemetryShard b =
      synthetic_shard(1, 0, 2'000'000'000, -1'000'000'000);
  add_span(a, "halo.xchg.post", 100, 110, /*rank=*/0, /*nbr=*/1, 1000);
  add_span(b, "halo.xchg.wait", 140, 160, /*rank=*/1, /*nbr=*/0, -1);

  obs::MergedTelemetry m = obs::merge_shards({a, b});
  EXPECT_TRUE(m.warnings.empty())
      << (m.warnings.empty() ? "" : m.warnings.front());
  const obs::CommReport r = obs::build_comm_report(m.events);
  ASSERT_EQ(matched_messages(r), 1u);
  ASSERT_EQ(r.groups.size(), 1u);
  // Delivery time on the corrected timeline: wait end 160 - post begin
  // 100 = 60us. Without offset correction the 1s skew would drown it.
  EXPECT_NEAR(r.groups[0].xfer_s, 60e-6, 1e-9);
  EXPECT_EQ(r.groups[0].bytes, 1000u);

  // Control: drop the offset and the same spans measure ~1s of "wire".
  obs::TelemetryShard b_raw = b;
  b_raw.clock.offset_ns = 0;
  obs::MergedTelemetry raw = obs::merge_shards({a, b_raw});
  const obs::CommReport r_raw = obs::build_comm_report(raw.events);
  ASSERT_EQ(matched_messages(r_raw), 1u);
  EXPECT_GT(r_raw.groups[0].xfer_s, 0.9);
}

TEST(ShardMerge, PairingNeverCrossesRelaunchSeam) {
  // A post recorded in round 0 must not match a wait recorded by the
  // relaunched round-1 incarnation of the receiver.
  obs::TelemetryShard a = synthetic_shard(0, 0, 1'000'000'000, 0);
  obs::TelemetryShard b = synthetic_shard(1, 1, 1'000'000'000, 0);
  add_span(a, "halo.xchg.post", 100, 110, 0, 1, 512);
  add_span(b, "halo.xchg.wait", 140, 160, 1, 0, -1);
  obs::MergedTelemetry m = obs::merge_shards({a, b});
  EXPECT_EQ(m.rounds, 2);
  EXPECT_EQ(matched_messages(obs::build_comm_report(m.events)), 0u);
}

TEST(ShardMerge, ProvenanceMismatchRaisesWarning) {
  obs::TelemetryShard a = synthetic_shard(0, 0, 0, 0);
  obs::TelemetryShard b = synthetic_shard(1, 0, 0, 0);
  b.git_sha = "deadbeef";
  b.fault_spec = "seed=3,peer_hang=1@1";
  const obs::MergedTelemetry m = obs::merge_shards({a, b});
  ASSERT_GE(m.warnings.size(), 2u);
  bool saw_sha = false, saw_faults = false;
  for (const std::string& w : m.warnings) {
    if (w.find("git SHA") != std::string::npos) saw_sha = true;
    if (w.find("fault spec") != std::string::npos) saw_faults = true;
  }
  EXPECT_TRUE(saw_sha);
  EXPECT_TRUE(saw_faults);
}

TEST(ShardMerge, MergedTraceRoundTrips) {
  // 2 ranks x 2 rounds; rank 1 of round 1 was killed (no footer). Rank
  // 1's clock epoch and offset lie past 2^53 (they travel as strings) but
  // cancel to 1024 us, so every merged time is exact at the writer's 10
  // significant digits.
  constexpr std::int64_t kFar = std::int64_t(1) << 60;
  std::vector<obs::TelemetryShard> in;
  for (int round = 0; round < 2; ++round)
    for (int rank = 0; rank < 2; ++rank) {
      obs::TelemetryShard s =
          rank == 0 ? synthetic_shard(0, round, 1'000'000'000, 0)
                    : synthetic_shard(1, round, std::uint64_t(kFar),
                                      -kFar + 1'024'000);
      s.path = "t.rank" + std::to_string(rank) + ".round" +
               std::to_string(round) + ".jsonl";
      s.pid = 4000 + 10 * round + rank;
      s.fault_spec = "seed=9,msg_drop=0.1";
      s.flushes = 3;
      s.last_flush_us = 512;
      s.end_us = 768;
      s.end_clock = s.clock;
      s.end_clock.rtt_ns = 1500;
      if (round == 1 && rank == 1) {
        s.truncated = true;
        s.end_us = 0;
        s.end_clock = obs::ShardClock{};
      }
      add_span(s, "halo.xchg.post", 100, 110.5, rank, 1 - rank, 4096);
      add_span(s, "halo.xchg.wait", 120.25, 160, rank, 1 - rank, -1);
      s.metrics.counters["resil.recover.rollback"] = std::uint64_t(rank + 1);
      s.metrics.counters["pool.jobs"] = 0;
      s.metrics.gauges["pool.threads"] = 2;
      obs::CycleRecord ok;
      ok.solver = "nsu3d";
      ok.solve_id = std::uint64_t(10 * round + rank + 1);
      ok.cycle = 1;
      ok.residual = 0.5;
      ok.has_forces = true;
      ok.cl = 0.25;
      ok.cd = 0.0625;
      ok.levels = {{0, 0.125}, {1, 0.03125}};
      obs::CycleRecord rolled_back = ok;
      rolled_back.cycle = 2;
      rolled_back.residual = std::nan("");
      rolled_back.cl = std::nan("");
      s.conv = {ok, rolled_back};
      in.push_back(std::move(s));
    }
  const obs::MergedTelemetry m = obs::merge_shards(in);

  std::ostringstream os;
  obs::write_merged_chrome_trace(os, m);
  obs::JsonValue doc;
  std::string err;
  ASSERT_TRUE(obs::parse_json(os.str(), doc, &err)) << err;
  obs::MergedTelemetry back;
  ASSERT_TRUE(obs::parse_merged_trace(doc, back, &err)) << err;

  EXPECT_EQ(back.ranks, m.ranks);
  EXPECT_EQ(back.rounds, m.rounds);
  EXPECT_EQ(back.threads, m.threads);
  EXPECT_EQ(back.backend, m.backend);
  EXPECT_EQ(back.git_sha, m.git_sha);
  EXPECT_EQ(back.build_type, m.build_type);
  EXPECT_EQ(back.warnings, m.warnings);
  EXPECT_EQ(back.event_member, m.event_member);
  ASSERT_EQ(back.events.size(), m.events.size());
  for (std::size_t i = 0; i < m.events.size(); ++i) {
    const obs::PhaseEvent &a = m.events[i], &b = back.events[i];
    EXPECT_EQ(b.name, a.name) << i;
    EXPECT_EQ(b.phase, a.phase) << i;
    EXPECT_EQ(b.ts_us, a.ts_us) << i;
    EXPECT_EQ(b.tid, a.tid) << i;
    EXPECT_EQ(b.round, a.round) << i;
    if (a.phase == 'B') {
      EXPECT_EQ(b.level, a.level) << i;
      EXPECT_EQ(b.rank, a.rank) << i;
      EXPECT_EQ(b.nbr, a.nbr) << i;
      EXPECT_EQ(b.strat, a.strat) << i;
      EXPECT_EQ(b.bytes, a.bytes) << i;
    }
  }
  ASSERT_EQ(back.shards.size(), m.shards.size());
  for (std::size_t i = 0; i < m.shards.size(); ++i) {
    const obs::TelemetryShard &a = m.shards[i], &b = back.shards[i];
    EXPECT_EQ(b.path, a.path);
    EXPECT_EQ(b.rank, a.rank);
    EXPECT_EQ(b.ranks, a.ranks);
    EXPECT_EQ(b.round, a.round);
    EXPECT_EQ(b.pid, a.pid);
    EXPECT_EQ(b.backend, a.backend);
    EXPECT_EQ(b.git_sha, a.git_sha);
    EXPECT_EQ(b.build_type, a.build_type);
    EXPECT_EQ(b.fault_spec, a.fault_spec);
    EXPECT_EQ(b.clock_base_ns, a.clock_base_ns);
    EXPECT_EQ(b.truncated, a.truncated);
    EXPECT_EQ(b.flushes, a.flushes);
    EXPECT_EQ(b.merged_base_us, a.merged_base_us);
    EXPECT_EQ(b.last_flush_us, a.last_flush_us);
    EXPECT_EQ(b.end_us, a.end_us);
    for (const auto& [x, y] : {std::pair{a.clock, b.clock},
                               std::pair{a.end_clock, b.end_clock}}) {
      EXPECT_EQ(y.synced, x.synced);
      EXPECT_EQ(y.offset_ns, x.offset_ns);
      EXPECT_EQ(y.rtt_ns, x.rtt_ns);
      EXPECT_EQ(y.samples, x.samples);
    }
    EXPECT_EQ(b.metrics.counters, a.metrics.counters);
    EXPECT_EQ(b.metrics.gauges, a.metrics.gauges);
    ASSERT_EQ(b.conv.size(), a.conv.size());
    for (std::size_t k = 0; k < a.conv.size(); ++k) {
      const obs::CycleRecord &x = a.conv[k], &y = b.conv[k];
      EXPECT_EQ(y.solver, x.solver);
      EXPECT_EQ(y.solve_id, x.solve_id);
      EXPECT_EQ(y.cycle, x.cycle);
      EXPECT_EQ(std::isnan(y.residual), std::isnan(x.residual));
      if (!std::isnan(x.residual)) EXPECT_EQ(y.residual, x.residual);
      EXPECT_EQ(y.has_forces, x.has_forces);
      EXPECT_EQ(std::isnan(y.cl), std::isnan(x.cl));
      if (!std::isnan(x.cl)) EXPECT_EQ(y.cl, x.cl);
      EXPECT_EQ(y.cd, x.cd);
      ASSERT_EQ(y.levels.size(), x.levels.size());
      for (std::size_t l = 0; l < x.levels.size(); ++l) {
        EXPECT_EQ(y.levels[l].level, x.levels[l].level);
        EXPECT_EQ(y.levels[l].seconds, x.levels[l].seconds);
      }
    }
  }
}

// --- end-to-end: forked groups, gathered shards, merged comm report ---------

using halo_oracle::make_scenario;
using halo_oracle::Scenario;

/// Child body: a few replicated exchange rounds over the group wire.
/// `result_base`, when set, writes the exchanged values hexfloat-exact to
/// "<result_base>.rank<r>.txt" for the determinism comparison.
smp::ProcessGroup::Body exchange_body(int rounds,
                                      const std::string& result_base = {}) {
  return [rounds, result_base](int rank, core::Transport& t) {
    const Scenario s = make_scenario(6, 18, 14, 21);
    core::ExchangePlanOptions opt;
    opt.transport = &t;
    opt.wire.deadline_ms = 200;
    opt.wire.max_attempts = 8;
    core::ExchangePlan plan(s.requests, opt);
    core::PartitionData got;
    for (int round = 0; round < rounds; ++round) got = plan.exchange(s.data);
    plan.drain();  // exit grace, as in test_transport
    if (!result_base.empty()) {
      std::ofstream os(result_base + ".rank" + std::to_string(rank) + ".txt");
      os << std::hexfloat;
      for (const auto& part : got)
        for (const real_t v : part) os << double(v) << "\n";
    }
    return 0;
  };
}

smp::ProcessGroupOptions group_options(smp::GroupBackend backend, int ranks) {
  smp::ProcessGroupOptions opts;
  opts.ranks = ranks;
  opts.backend = backend;
  opts.heartbeat_ms = 10;
  opts.stall_ms = 2000;
  opts.wall_timeout_ms = 60000;
  return opts;
}

void expect_merged_comm_report(smp::GroupBackend backend,
                               const char* base_name) {
  const std::string base = testing::TempDir() + base_name;
  smp::ProcessGroupOptions opts = group_options(backend, 3);
  opts.telemetry_base = base;
  const smp::GroupResult res =
      smp::ProcessGroup::run(opts, exchange_body(3));
  ASSERT_TRUE(res.ok) << "first failing exit: " << res.first_failure_exit();
  ASSERT_EQ(res.shards.size(), 3u);

  std::vector<obs::TelemetryShard> shards;
  for (const std::string& path : res.shards) {
    obs::TelemetryShard s;
    std::string err;
    ASSERT_TRUE(obs::read_shard_file(path, s, &err)) << path << ": " << err;
    EXPECT_FALSE(s.truncated) << path;
    EXPECT_TRUE(s.clock.synced) << path;
    if (s.rank != 0) EXPECT_GT(s.clock.samples, 0) << path;
    shards.push_back(std::move(s));
  }
  obs::MergedTelemetry m = obs::merge_shards(std::move(shards));
  EXPECT_TRUE(m.warnings.empty())
      << (m.warnings.empty() ? "" : m.warnings.front());
  EXPECT_EQ(m.ranks, 3);
  ASSERT_FALSE(m.events.empty());

  const obs::CommReport r = obs::build_comm_report(m.events);
  ASSERT_FALSE(r.empty());
  EXPECT_GT(matched_messages(r), 0u);
  for (const obs::CommGroup& g : r.groups) {
    if (g.messages == 0) continue;
    // Offset-corrected deliveries are sane: non-negative and nowhere near
    // the run's wall time (a failed correction shows up as seconds).
    EXPECT_GE(g.xfer_min_s, 0.0);
    EXPECT_LT(g.xfer_s / double(g.messages), 10.0);
  }

  // The documented CLI entry point consumes the raw shards directly.
  std::ostringstream out, err;
  std::vector<std::string> args = {"comm", "--json"};
  args.insert(args.end(), res.shards.begin(), res.shards.end());
  EXPECT_EQ(obs::report::run(args, out, err), obs::report::kOk) << err.str();
  EXPECT_NE(out.str().find("\"wait_s\""), std::string::npos);
  EXPECT_NE(out.str().find("\"provenance_mismatch\":false"),
            std::string::npos);
  EXPECT_NE(out.str().find("\"liveness\""), std::string::npos);
}

TEST(FlightRecorderE2E, ShmShardsMergeIntoCommReport) {
  expect_merged_comm_report(smp::GroupBackend::Shm, "fr_e2e_shm");
}

TEST(FlightRecorderE2E, TcpShardsMergeIntoCommReport) {
  expect_merged_comm_report(smp::GroupBackend::Tcp, "fr_e2e_tcp");
}

TEST(FlightRecorderE2E, KilledRankLeavesMergeableShard) {
  const std::string base = testing::TempDir() + "fr_e2e_kill";
  smp::ProcessGroupOptions opts = group_options(smp::GroupBackend::Shm, 2);
  opts.telemetry_base = base;
  const smp::GroupResult res = smp::ProcessGroup::run(
      opts, [](int rank, core::Transport& t) {
        (void)t;
        { obs::SpanGuard sp("child.work", {{"level", 0}}); }
        if (rank == 1) {
          // Outlive at least one autoflush period, then die without
          // finalize — the watchdog-kill / crash shape.
          std::this_thread::sleep_for(std::chrono::milliseconds(700));
          ::_exit(7);
        }
        return 0;
      });
  EXPECT_FALSE(res.ok);
  ASSERT_EQ(res.shards.size(), 2u);

  std::vector<obs::TelemetryShard> shards;
  for (const std::string& path : res.shards) {
    obs::TelemetryShard s;
    std::string err;
    ASSERT_TRUE(obs::read_shard_file(path, s, &err)) << path << ": " << err;
    shards.push_back(std::move(s));
  }
  EXPECT_FALSE(shards[0].truncated);  // rank 0 finalized normally
  EXPECT_TRUE(shards[1].truncated);   // rank 1 never wrote its footer
  EXPECT_GE(shards[1].flushes, 1);
  EXPECT_FALSE(shards[1].events.empty());

  const obs::MergedTelemetry m = obs::merge_shards(std::move(shards));
  EXPECT_EQ(m.ranks, 2);
  EXPECT_FALSE(m.events.empty());
}

void expect_recorder_invisible(smp::GroupBackend backend,
                               const char* base_name) {
  const std::string dir = testing::TempDir();
  const std::string off_base = dir + base_name + "_off";
  const std::string on_base = dir + base_name + "_on";

  smp::ProcessGroupOptions off = group_options(backend, 2);
  ASSERT_TRUE(smp::ProcessGroup::run(off, exchange_body(2, off_base)).ok);

  smp::ProcessGroupOptions on = group_options(backend, 2);
  on.telemetry_base = dir + base_name + "_shards";
  ASSERT_TRUE(smp::ProcessGroup::run(on, exchange_body(2, on_base)).ok);

  for (int rank = 0; rank < 2; ++rank) {
    const std::string suffix = ".rank" + std::to_string(rank) + ".txt";
    const std::string a = off_base + suffix;
    const std::string b = on_base + suffix;
    std::ifstream ia(a), ib(b);
    ASSERT_TRUE(ia) << a;
    ASSERT_TRUE(ib) << b;
    std::stringstream sa, sb;
    sa << ia.rdbuf();
    sb << ib.rdbuf();
    EXPECT_FALSE(sa.str().empty());
    EXPECT_EQ(sa.str(), sb.str()) << "rank " << rank << " over "
                                  << smp::group_backend_name(backend);
  }
}

TEST(FlightRecorderE2E, ShmExchangedValuesIdenticalRecorderOnOrOff) {
  expect_recorder_invisible(smp::GroupBackend::Shm, "fr_det_shm");
}

TEST(FlightRecorderE2E, TcpExchangedValuesIdenticalRecorderOnOrOff) {
  expect_recorder_invisible(smp::GroupBackend::Tcp, "fr_det_tcp");
}

}  // namespace
}  // namespace columbia
