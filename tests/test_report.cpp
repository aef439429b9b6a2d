// Performance-observatory tests: the JSON parser, the phase-profile
// aggregator, the columbia_report CLI (golden outputs from the committed
// fixtures in tests/data/), and the perf-regression gate's exit codes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/exchange_plan.hpp"
#include "halo_oracle.hpp"
#include "obs/json.hpp"
#include "obs/json_parse.hpp"
#include "obs/obs.hpp"
#include "obs/report_cli.hpp"
#include "obs/shard.hpp"
#include "support/table.hpp"

namespace columbia {
namespace {

std::string fixture(const std::string& name) {
  return std::string(COLUMBIA_TEST_DATA_DIR) + "/" + name;
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

// --- JSON parser ----------------------------------------------------------

TEST(JsonParseTest, Scalars) {
  obs::JsonValue v;
  ASSERT_TRUE(obs::parse_json("null", v));
  EXPECT_TRUE(v.is_null());
  ASSERT_TRUE(obs::parse_json("true", v));
  EXPECT_TRUE(v.boolean());
  ASSERT_TRUE(obs::parse_json("-12.5e2", v));
  EXPECT_DOUBLE_EQ(v.number(), -1250.0);
  ASSERT_TRUE(obs::parse_json("\"hi\"", v));
  EXPECT_EQ(v.str(), "hi");
}

TEST(JsonParseTest, NestedContainers) {
  obs::JsonValue v;
  ASSERT_TRUE(obs::parse_json(R"({"a":[1,2,{"b":null}],"c":{"d":false}})", v));
  const obs::JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_DOUBLE_EQ(a->items()[1].number(), 2.0);
  EXPECT_TRUE(a->items()[2].find("b")->is_null());
  EXPECT_FALSE(v.find("c")->find("d")->boolean());
}

TEST(JsonParseTest, StringEscapes) {
  obs::JsonValue v;
  ASSERT_TRUE(obs::parse_json(R"("a\"b\\c\nd\teA")", v));
  EXPECT_EQ(v.str(), "a\"b\\c\nd\teA");
  // Surrogate pair: U+1F600 -> 4-byte UTF-8.
  ASSERT_TRUE(obs::parse_json(R"("😀")", v));
  EXPECT_EQ(v.str(), "\xF0\x9F\x98\x80");
}

TEST(JsonParseTest, RejectsMalformed) {
  obs::JsonValue v;
  std::string err;
  EXPECT_FALSE(obs::parse_json("{\"a\":}", v, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(obs::parse_json("[1,2", v));
  EXPECT_FALSE(obs::parse_json("12 34", v));  // trailing garbage
  EXPECT_FALSE(obs::parse_json("", v));
}

TEST(JsonParseTest, JsonlKeepsParsedPrefixOfTruncatedStream) {
  // A telemetry stream cut mid-write: the tail line is incomplete.
  const std::string text =
      "{\"cycle\":1}\n{\"cycle\":2}\n{\"cyc";
  std::string err;
  const std::vector<obs::JsonValue> recs = obs::parse_jsonl(text, &err);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_DOUBLE_EQ(recs[1].number_or("cycle", 0), 2.0);
}

// --- JsonWriter edge cases (round-trip through the parser) ----------------

TEST(JsonWriterTest, EscapesRoundTrip) {
  std::ostringstream os;
  {
    obs::JsonWriter w(os);
    w.begin_object();
    w.kv("k", std::string("quote\" slash\\ nl\n tab\t ctl\x01"));
    w.end_object();
  }
  obs::JsonValue v;
  ASSERT_TRUE(obs::parse_json(os.str(), v)) << os.str();
  EXPECT_EQ(v.string_or("k", ""), "quote\" slash\\ nl\n tab\t ctl\x01");
}

TEST(JsonWriterTest, NanAndInfBecomeNull) {
  std::ostringstream os;
  {
    obs::JsonWriter w(os);
    w.begin_object();
    w.kv("nan", std::numeric_limits<double>::quiet_NaN());
    w.kv("inf", std::numeric_limits<double>::infinity());
    w.kv("ninf", -std::numeric_limits<double>::infinity());
    w.kv("ok", 2.5);
    w.end_object();
  }
  obs::JsonValue v;
  ASSERT_TRUE(obs::parse_json(os.str(), v)) << os.str();
  EXPECT_TRUE(v.find("nan")->is_null());
  EXPECT_TRUE(v.find("inf")->is_null());
  EXPECT_TRUE(v.find("ninf")->is_null());
  EXPECT_DOUBLE_EQ(v.number_or("ok", 0), 2.5);
}

TEST(JsonWriterTest, DoublesRoundTripAtTenDigits) {
  // The writer deliberately emits %.10g (see json.hpp): values with up to
  // 10 significant digits round-trip exactly; beyond that is out of
  // contract.
  std::ostringstream os;
  {
    obs::JsonWriter w(os);
    w.begin_array();
    w.value(12345678.25);
    w.value(1e-300);
    w.value(-0.001);
    w.end_array();
  }
  obs::JsonValue v;
  ASSERT_TRUE(obs::parse_json(os.str(), v));
  EXPECT_DOUBLE_EQ(v.items()[0].number(), 12345678.25);
  EXPECT_DOUBLE_EQ(v.items()[1].number(), 1e-300);
  EXPECT_DOUBLE_EQ(v.items()[2].number(), -0.001);
}

// --- phase-profile aggregation --------------------------------------------

obs::PhaseEvent ev(const char* name, char ph, double ts_us, int tid,
                   std::int64_t level = -1) {
  obs::PhaseEvent e;
  e.name = name;
  e.phase = ph;
  e.ts_us = ts_us;
  e.tid = tid;
  e.level = level;
  return e;
}

TEST(PhaseProfileTest, ExclusiveTimeSubtractsChildren) {
  // outer [0,100] with child inner [20,50]: exclusive outer = 70us.
  const std::vector<obs::PhaseEvent> events = {
      ev("outer", 'B', 0, 0),
      ev("inner", 'B', 20, 0),
      ev("inner", 'E', 50, 0),
      ev("outer", 'E', 100, 0),
  };
  const obs::PhaseProfile p = obs::build_profile(events);
  ASSERT_EQ(p.phases.size(), 2u);
  // Sorted by total_s descending: outer 70us, inner 30us.
  EXPECT_EQ(p.phases[0].phase, "outer");
  EXPECT_NEAR(p.phases[0].total_s, 70e-6, 1e-12);
  EXPECT_EQ(p.phases[1].phase, "inner");
  EXPECT_NEAR(p.phases[1].total_s, 30e-6, 1e-12);
  EXPECT_NEAR(p.busy_s, 100e-6, 1e-12);
  EXPECT_NEAR(p.wall_s, 100e-6, 1e-12);
}

TEST(PhaseProfileTest, ImbalanceIsMaxOverMeanAcrossThreads) {
  // tid0 does 30us of work, tid1 does 10us: imbalance = 30 / 20 = 1.5.
  const std::vector<obs::PhaseEvent> events = {
      ev("work", 'B', 0, 0), ev("work", 'E', 30, 0),
      ev("work", 'B', 0, 1), ev("work", 'E', 10, 1),
  };
  const obs::PhaseProfile p = obs::build_profile(events);
  ASSERT_EQ(p.phases.size(), 1u);
  EXPECT_EQ(p.phases[0].threads, 2);
  EXPECT_NEAR(p.phases[0].imbalance, 1.5, 1e-12);
}

TEST(PhaseProfileTest, CommFractionAndCriticalPath) {
  const std::vector<obs::PhaseEvent> events = {
      ev("solver.smooth", 'B', 0, 0),  ev("solver.smooth", 'E', 60, 0),
      ev("halo.exchange", 'B', 60, 0), ev("halo.exchange", 'E', 100, 0),
      ev("solver.smooth", 'B', 0, 1),  ev("solver.smooth", 'E', 90, 1),
      ev("halo.exchange", 'B', 90, 1), ev("halo.exchange", 'E', 100, 1),
  };
  const obs::PhaseProfile p = obs::build_profile(events);
  // comm = 40 + 10 = 50us of 200us busy.
  EXPECT_NEAR(p.comm_s, 50e-6, 1e-12);
  EXPECT_NEAR(p.comm_fraction, 0.25, 1e-12);
  ASSERT_EQ(p.comm_per_thread.size(), 2u);
  double crit = 0;
  for (double s : p.comm_per_thread) crit = std::max(crit, s);
  EXPECT_NEAR(crit, 40e-6, 1e-12);  // busiest thread's halo time
}

TEST(PhaseProfileTest, LevelRollupFromSpanArgs) {
  const std::vector<obs::PhaseEvent> events = {
      ev("s.level", 'B', 0, 0, 0),  ev("s.level", 'E', 80, 0),
      ev("s.level", 'B', 80, 0, 1), ev("s.level", 'E', 100, 0),
  };
  const obs::PhaseProfile p = obs::build_profile(events);
  ASSERT_EQ(p.levels.size(), 2u);
  EXPECT_EQ(p.levels[0].level, 0);
  EXPECT_NEAR(p.levels[0].total_s, 80e-6, 1e-12);
  EXPECT_EQ(p.levels[1].level, 1);
  EXPECT_NEAR(p.levels[1].total_s, 20e-6, 1e-12);
}

TEST(PhaseProfileTest, UnmatchedEdgesOfWindowAreDropped) {
  // An 'E' with no 'B' (span began before the window) and a 'B' with no
  // 'E' (window closed mid-span) contribute nothing.
  const std::vector<obs::PhaseEvent> events = {
      ev("pre", 'E', 10, 0),
      ev("work", 'B', 20, 0),
      ev("work", 'E', 50, 0),
      ev("post", 'B', 60, 0),
  };
  const obs::PhaseProfile p = obs::build_profile(events);
  ASSERT_EQ(p.phases.size(), 1u);
  EXPECT_EQ(p.phases[0].phase, "work");
  EXPECT_NEAR(p.busy_s, 30e-6, 1e-12);
}

TEST(PhaseProfileTest, P95IsNearestRank) {
  std::vector<obs::PhaseEvent> events;
  // 100 instances of 1..100us: p95 (nearest-rank) = 95us.
  for (int i = 1; i <= 100; ++i) {
    events.push_back(ev("k", 'B', i * 1000.0, 0));
    events.push_back(ev("k", 'E', i * 1000.0 + i, 0));
  }
  const obs::PhaseProfile p = obs::build_profile(events);
  ASSERT_EQ(p.phases.size(), 1u);
  EXPECT_NEAR(p.phases[0].p95_s, 95e-6, 1e-12);
}

// --- columbia_report CLI: golden outputs from committed fixtures ----------

TEST(ReportCliTest, ScalingSeriesReproducesEfficiencyTable) {
  const CliResult r = run_cli({fixture("trace_t1.json"),
                               fixture("trace_t2.json"),
                               fixture("trace_t4.json")});
  EXPECT_EQ(r.exit_code, obs::report::kOk) << r.err;
  // The hand-authored fixtures encode wall times 8.0 / 5.0 / 2.5 s, i.e.
  // speedups 1.0 / 1.6 / 3.2 and parallel efficiencies 1.0 / 0.8 / 0.8 —
  // the Fig. 15-style table.
  EXPECT_NE(r.out.find("== scaling series"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("1        8.0000  1.000    1.000  1.000       0.125"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("2        5.0000  1.600    2.000  0.800       0.150"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("4        2.5000  3.200    4.000  0.800       0.200"),
            std::string::npos)
      << r.out;
}

TEST(ReportCliTest, PerLevelImbalanceFactorsFromTrace) {
  const CliResult r = run_cli({fixture("trace_t2.json")});
  EXPECT_EQ(r.exit_code, obs::report::kOk) << r.err;
  // trace_t2: level 0 per-thread {3.0, 2.0} s -> imbalance 1.20; level 1
  // per-thread {1.0, 2.5} s -> 2.5 / 1.75 = 1.43.
  EXPECT_NE(r.out.find("0      2      5.0000  0.588  1.20"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("1      2      3.5000  0.412  1.43"),
            std::string::npos)
      << r.out;
  // Summary: comm fraction 1.5 / 10.0, critical path = busiest thread 1.0 s.
  EXPECT_NE(r.out.find("comm fraction"), std::string::npos);
  EXPECT_NE(r.out.find("0.150"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("halo critical path s (busiest thread)  1.0000"),
            std::string::npos)
      << r.out;
}

TEST(ReportCliTest, ThreadsComeFromColumbiaMetadata) {
  const CliResult r = run_cli({fixture("trace_t4.json")});
  EXPECT_EQ(r.exit_code, obs::report::kOk);
  EXPECT_NE(r.out.find("threads=4"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("git fixture"), std::string::npos) << r.out;
}

TEST(ReportCliTest, ConvergenceJsonlRollup) {
  const CliResult r = run_cli({fixture("conv.jsonl")});
  EXPECT_EQ(r.exit_code, obs::report::kOk) << r.err;
  EXPECT_NE(r.out.find("10 cycles"), std::string::npos) << r.out;
  // 10 halvings: log10(2^10) = 3.01 orders... but the fixture's first
  // record is already halved, so first/last span 9 halvings = 2.709.
  EXPECT_NE(r.out.find("2.709"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("0      0.8000   0.0800   0.800"), std::string::npos)
      << r.out;
}

TEST(ReportCliTest, ConvergenceSkipsNonFiniteResiduals) {
  // A rolled-back guarded attempt records a non-finite residual (written
  // as null); the rollup spans the first and last finite ones.
  const std::string path = testing::TempDir() + "/conv_nonfinite.jsonl";
  {
    std::ofstream os(path);
    os << R"({"telemetry_shard":1,"rank":0,"ranks":1,"round":0})" << "\n"
       << R"({"conv":{"solver":"nsu3d","cycle":1,"residual":null}})" << "\n"
       << R"({"conv":{"solver":"nsu3d","cycle":2,"residual":0.5}})" << "\n"
       << R"({"conv":{"solver":"nsu3d","cycle":3,"residual":null}})" << "\n"
       << R"({"conv":{"solver":"nsu3d","cycle":4,"residual":0.005}})" << "\n";
  }
  const CliResult r = run_cli({path});
  EXPECT_EQ(r.exit_code, obs::report::kOk) << r.err;
  EXPECT_NE(r.out.find("4 cycles"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("first residual  0.5000"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("last residual   0.0050"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("orders dropped  2.000"), std::string::npos) << r.out;
  std::remove(path.c_str());
}

/// The value column of the summary row labelled `label`, or "" if absent.
std::string summary_value(const std::string& out, const std::string& label) {
  std::istringstream is(out);
  for (std::string line; std::getline(is, line);)
    if (line.rfind(label + "  ", 0) == 0)
      return line.substr(line.find_last_of(' ') + 1);
  return "";
}

// The halo traffic rows come from the metrics snapshot a trace carries
// (ExchangePlan's halo.plan.* counters and resil.halo.retransmits), so an
// offline report counts what the plan's own ledger counts.
TEST(ReportCliTest, SummaryCountsHaloTrafficFromTrace) {
  const halo_oracle::Scenario s = halo_oracle::make_scenario(8, 20, 15, 11);
  core::ExchangePlan plan(s.requests);  // thread-to-thread
  obs::reset_trace();
  obs::reset_metrics();
  obs::set_enabled(true);
  for (int round = 0; round < 3; ++round)
    EXPECT_EQ(plan.exchange(s.data), halo_oracle::expected(s));
  obs::set_enabled(false);
  const std::string path = testing::TempDir() + "halo_traffic_trace.json";
  ASSERT_TRUE(obs::write_trace(path, {obs::live_shard()}));
  obs::reset_trace();
  const CliResult r = run_cli({path});
  std::remove(path.c_str());
  ASSERT_EQ(r.exit_code, obs::report::kOk) << r.err;

  const core::ExchangeStats& st = plan.stats();
  ASSERT_EQ(st.exchanges, 3u);
  ASSERT_GT(st.messages, 0u);
  EXPECT_EQ(summary_value(r.out, "halo exchanges"),
            std::to_string(st.exchanges))
      << r.out;
  EXPECT_EQ(summary_value(r.out, "halo messages"),
            std::to_string(st.messages))
      << r.out;
  EXPECT_EQ(summary_value(r.out, "halo MB"),
            Table::num(double(st.bytes) / 1e6, 3))
      << r.out;
  EXPECT_EQ(summary_value(r.out, "halo retransmits"),
            std::to_string(st.retransmits))
      << r.out;
}

TEST(ReportCliTest, UsageErrors) {
  EXPECT_EQ(run_cli({}).exit_code, obs::report::kUsage);
  EXPECT_EQ(run_cli({"--tolerance", "bogus", fixture("conv.jsonl")}).exit_code,
            obs::report::kUsage);
  EXPECT_EQ(run_cli({"/nonexistent/path.json"}).exit_code,
            obs::report::kUsage);
  // A bench report without --baseline is a usage error, not a silent pass.
  const CliResult r = run_cli({fixture("bench_kernels_base.json")});
  EXPECT_EQ(r.exit_code, obs::report::kUsage);
  EXPECT_NE(r.err.find("--baseline"), std::string::npos);
}

// --- perf-regression gate -------------------------------------------------

TEST(PerfGateTest, IdenticalInputPasses) {
  const CliResult r = run_cli({fixture("bench_kernels_base.json"),
                               "--baseline",
                               fixture("bench_kernels_base.json")});
  EXPECT_EQ(r.exit_code, obs::report::kOk) << r.out << r.err;
  EXPECT_NE(r.out.find("2 compared, 0 skipped, 0 regressions"),
            std::string::npos)
      << r.out;
}

TEST(PerfGateTest, SlowedInputFailsWithNonzeroExit) {
  const CliResult r = run_cli({fixture("bench_kernels_slow.json"),
                               "--baseline",
                               fixture("bench_kernels_base.json"),
                               "--tolerance", "10%"});
  EXPECT_EQ(r.exit_code, obs::report::kRegression) << r.out;
  EXPECT_NE(r.out.find("REGRESSION"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("1 regression"), std::string::npos) << r.out;
}

TEST(PerfGateTest, SlowdownWithinToleranceIsOk) {
  const CliResult r = run_cli({fixture("bench_kernels_slow.json"),
                               "--baseline",
                               fixture("bench_kernels_base.json"),
                               "--tolerance", "60%"});
  EXPECT_EQ(r.exit_code, obs::report::kOk) << r.out;
}

TEST(PerfGateTest, UnmeasurableThreadRowsSkipWithExplicitReason) {
  // Same 50% slowdown on the t=4 row, but the current document says the
  // host has a single hardware thread: the row must be skipped (with the
  // ROADMAP's reason), not failed — and the verdict stays green.
  const CliResult r = run_cli({fixture("bench_kernels_slow_1hw.json"),
                               "--baseline",
                               fixture("bench_kernels_base.json"),
                               "--tolerance", "10%"});
  EXPECT_EQ(r.exit_code, obs::report::kOk) << r.out;
  EXPECT_NE(r.out.find("skipped: single hardware thread"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("1 compared, 1 skipped, 0 regressions"),
            std::string::npos)
      << r.out;
}

TEST(PerfGateTest, MismatchedBenchNamesAreAUsageError) {
  const CliResult r = run_cli({fixture("bench_kernels_base.json"),
                               "--baseline", fixture("trace_t1.json")});
  EXPECT_EQ(r.exit_code, obs::report::kUsage);
}

// The reporter-table path that gates BENCH_comm.json: rows keyed by their
// first member within each named series.
CliResult gate_comm(const std::string& current) {
  return run_cli({fixture(current), "--baseline",
                  fixture("bench_comm_base.json")});
}

TEST(PerfGateTest, CommIdenticalReportPasses) {
  const CliResult r = gate_comm("bench_comm_base.json");
  EXPECT_EQ(r.exit_code, obs::report::kOk) << r.out << r.err;
  // 2 strategies rows x 4 exact columns + the plan row's timing, alloc
  // count, messages and total MB.
  EXPECT_NE(r.out.find("12 compared, 0 skipped, 0 regressions"),
            std::string::npos)
      << r.out;
}

TEST(PerfGateTest, CommDroppedRowFails) {
  const CliResult r = gate_comm("bench_comm_dropped_row.json");
  EXPECT_EQ(r.exit_code, obs::report::kRegression) << r.out;
  EXPECT_NE(r.out.find("REGRESSION (row missing)"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("1 regression\n"), std::string::npos) << r.out;
}

TEST(PerfGateTest, CommDroppedSeriesFails) {
  const CliResult r = gate_comm("bench_comm_dropped_series.json");
  EXPECT_EQ(r.exit_code, obs::report::kRegression) << r.out;
  EXPECT_NE(r.out.find("REGRESSION (series missing)"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("1 regression\n"), std::string::npos) << r.out;
}

TEST(PerfGateTest, CommChangedMessageCountFails) {
  const CliResult r = gate_comm("bench_comm_changed_messages.json");
  EXPECT_EQ(r.exit_code, obs::report::kRegression) << r.out;
  EXPECT_NE(r.out.find("REGRESSION (value changed)"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("1 regression\n"), std::string::npos) << r.out;
}

// --- round trip: live spans -> Chrome trace -> offline ingest -------------

TEST(ReportRoundTripTest, LiveProfileMatchesOfflineTraceIngest) {
  obs::reset_trace();
  const bool was = obs::enabled();
  obs::set_enabled(true);
  {
    OBS_SPAN("rt.outer", "level", 0);
    OBS_SPAN("halo.rt.exchange");
  }
  obs::set_enabled(was);

  const obs::PhaseProfile live =
      obs::build_profile(obs::phase_events_since());
  ASSERT_EQ(live.phases.size(), 2u);

  const std::string path = testing::TempDir() + "/rt_trace.json";
  ASSERT_TRUE(obs::write_trace(path, {obs::live_shard()}));
  const CliResult r = run_cli({path});
  EXPECT_EQ(r.exit_code, obs::report::kOk) << r.err;
  // The offline ingest sees the same two phases with one call each, and
  // classifies the halo span as communication.
  EXPECT_NE(r.out.find("rt.outer"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("halo.rt.exchange"), std::string::npos) << r.out;
  EXPECT_GT(live.comm_s, 0.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace columbia
