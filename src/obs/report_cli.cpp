#include "obs/report_cli.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

#include "obs/comm_report.hpp"
#include "obs/json.hpp"
#include "obs/json_parse.hpp"
#include "obs/report.hpp"
#include "obs/shard.hpp"
#include "perf/wire_model.hpp"
#include "support/build_info.hpp"
#include "support/table.hpp"

namespace columbia::obs::report {

namespace {

constexpr const char* kUsageText =
    "usage: columbia_report [options] FILE...\n"
    "       columbia_report comm TRACE...\n"
    "\n"
    "  FILE               Chrome trace JSON (an example's --trace), a\n"
    "                     per-rank telemetry shard (*.rankR.roundK.jsonl,\n"
    "                     written by the distributed flight recorder), or\n"
    "                     a bench --json report (classified by content)\n"
    "  comm TRACE...      communication observatory: per-rank wait-state\n"
    "                     attribution from the traces' halo.xchg spans —\n"
    "                     rank x neighbor wait matrix with late-sender /\n"
    "                     late-receiver split, per-(level, strategy)\n"
    "                     critical path, per-level overlap headroom and\n"
    "                     coarse-level agglomeration advice (Figs. 16-19).\n"
    "                     Shard files given together are clock-aligned and\n"
    "                     merged first; merged traces add a rank-liveness\n"
    "                     timeline and a measured-vs-model fabric table\n"
    "  --fabric NAME      machine model to price wire traffic against, by\n"
    "                     backend name (threads/shm/tcp); default: the\n"
    "                     trace's recorded backend\n"
    "  --json             comm mode: emit the report as one JSON document\n"
    "                     (provenance_mismatch flag, warnings, wait\n"
    "                     matrix, wire model, liveness) instead of tables\n"
    "  --baseline PATH    perf gate: compare the bench-report FILE against\n"
    "                     the committed baseline at PATH\n"
    "  --tolerance T      allowed timing slowdown for the gate: '10%', or\n"
    "                     a fraction like 0.1 (default 10%)\n"
    "  --version          print the build provenance stamp and exit\n"
    "\n"
    "Traces: one file prints its phase profile (exclusive per-phase and\n"
    "per-level times, imbalance factors, communication fraction and halo\n"
    "critical-path estimate) and the convergence rollup of the cycle\n"
    "records it carries; several files form a scaling series with a\n"
    "Fig. 15-style speedup / parallel-efficiency table.\n";

struct Options {
  std::vector<std::string> files;
  std::string baseline;
  std::string fabric;  // backend name overriding the trace's for the model
  double tolerance = 0.10;
  bool tolerance_set = false;
  bool comm = false;
  bool json = false;
};

/// One-line provenance stamp (satellite of ISSUE 7): archived reports stay
/// attributable to the build that produced them.
std::string version_line() {
  const BuildInfo& bi = build_info();
  return "columbia_report " + bi.git_sha + " (" + bi.build_type + ")";
}

bool parse_tolerance(const std::string& s, double& out) {
  if (s.empty()) return false;
  std::string body = s;
  bool percent = false;
  if (body.back() == '%') {
    percent = true;
    body.pop_back();
  }
  char* end = nullptr;
  const double v = std::strtod(body.c_str(), &end);
  if (end != body.c_str() + body.size() || v < 0) return false;
  // Bare numbers < 1 read as fractions ("0.1"), >= 1 as percent ("25").
  out = percent ? v / 100.0 : (v < 1.0 ? v : v / 100.0);
  return true;
}

bool read_file(const std::string& path, std::string& out, std::ostream& err) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    err << "columbia_report: cannot open " << path << "\n";
    return false;
  }
  std::ostringstream ss;
  ss << is.rdbuf();
  out = ss.str();
  return true;
}

// --- runs ---------------------------------------------------------------

/// One analyzed input: a merged telemetry run, from one trace file or from
/// all the shard files of the invocation merged together.
struct TraceRun {
  std::string path;  // trace file, or the first shard's path plus a count
  MergedTelemetry m;
  PhaseProfile profile;
  bool provenance_mismatch = false;  // see check_provenance()
};

/// Provenance guard: the merge already cross-checks shard-vs-shard stamps
/// (those arrive in run.m.warnings); here the trace is additionally checked
/// against the analyzing binary, and the JSON `provenance_mismatch` flag
/// is derived. Clock-sync anomalies warn without raising the flag.
void check_provenance(TraceRun& run) {
  const BuildInfo& bi = build_info();
  MergedTelemetry& m = run.m;
  if (!m.git_sha.empty() && m.git_sha != bi.git_sha)
    m.warnings.push_back("provenance mismatch: trace recorded at git " +
                         m.git_sha + " but this binary is " + bi.git_sha);
  if (!m.build_type.empty() && m.build_type != bi.build_type)
    m.warnings.push_back("provenance mismatch: trace recorded by a " +
                         m.build_type + " build but this binary is " +
                         bi.build_type);
  for (const std::string& w : m.warnings)
    if (w.find("mismatch") != std::string::npos) run.provenance_mismatch = true;
}

void print_single_run(const TraceRun& run, std::ostream& out) {
  out << "== trace: " << run.path << " (threads=" << run.m.threads;
  if (!run.m.git_sha.empty()) out << ", git " << run.m.git_sha;
  out << ") ==\n";
  out << summary_table(run.profile).to_string();
  const Table lt = level_table(run.profile);
  if (!lt.rows().empty()) {
    out << "-- per-level rollup --\n";
    out << lt.to_string();
  }
  out << "-- phase profile --\n";
  out << profile_table(run.profile).to_string();
}

void print_scaling_table(std::vector<TraceRun>& runs, std::ostream& out) {
  std::sort(runs.begin(), runs.end(),
            [](const TraceRun& a, const TraceRun& b) {
              return a.m.threads < b.m.threads;
            });
  const TraceRun& base = runs.front();
  out << "== scaling series (reference: " << base.path << ", threads="
      << base.m.threads << ") ==\n";
  Table t({"threads", "wall s", "speedup", "ideal", "efficiency",
           "comm frac", "trace"});
  for (const TraceRun& r : runs) {
    const double speedup =
        r.profile.wall_s > 0 ? base.profile.wall_s / r.profile.wall_s : 0;
    const double ideal = double(r.m.threads) / double(base.m.threads);
    t.add_row({std::to_string(r.m.threads), Table::num(r.profile.wall_s, 4),
               Table::num(speedup, 3), Table::num(ideal, 3),
               Table::num(ideal > 0 ? speedup / ideal : 0, 3),
               Table::num(r.profile.comm_fraction, 3), r.path});
  }
  out << t.to_string();
}

// --- comm observatory (halo.xchg spans) -----------------------------------

void print_comm_run(const TraceRun& run, const CommReport& r,
                    std::ostream& out) {
  out << "== comm observatory: " << run.path << " (threads=" << run.m.threads;
  if (!run.m.git_sha.empty()) out << ", git " << run.m.git_sha;
  out << ") ==\n";
  if (r.empty()) {
    out << "no halo.xchg spans in trace (record with the comm observatory "
           "instrumentation enabled)\n";
    return;
  }
  Table s({"metric", "value"});
  s.add_row({"ranks", std::to_string(r.ranks)});
  s.add_row({"wait s", Table::num(r.wait_s, 6)});
  s.add_row({"late-sender s", Table::num(r.late_sender_s, 6)});
  s.add_row({"late-receiver s", Table::num(r.late_receiver_s, 6)});
  s.add_row({"retransmits", std::to_string(r.retransmits)});
  out << s.to_string();
  out << "-- wait matrix (rank x neighbor) --\n"
      << comm_wait_matrix_table(r).to_string();
  out << "-- strategy rollup --\n" << comm_strategy_table(r).to_string();
  if (!r.levels.empty())
    out << "-- overlap headroom --\n" << comm_overlap_table(r).to_string();
}

/// One shard's liveness story on the merged timeline (member 0's clock):
/// when it started, when the autoflush thread last proved it alive,
/// whether it reached its footer, and what the clock sync measured.
void print_liveness(const TraceRun& run, std::ostream& out) {
  if (run.m.shards.empty()) return;
  out << "-- rank liveness (merged timeline, member 0's clock) --\n";
  Table t({"rank", "round", "pid", "status", "flushes", "start ms",
           "last flush ms", "end ms", "offset us", "rtt us", "sync"});
  for (const TelemetryShard& s : run.m.shards) {
    t.add_row({std::to_string(s.rank), std::to_string(s.round),
               std::to_string(s.pid), s.truncated ? "TRUNCATED" : "complete",
               std::to_string(s.flushes),
               Table::num(s.merged_base_us / 1e3, 3),
               Table::num((s.merged_base_us + s.last_flush_us) / 1e3, 3),
               s.truncated ? "-"
                           : Table::num((s.merged_base_us + s.end_us) / 1e3, 3),
               Table::num(double(s.clock.offset_ns) / 1e3, 3),
               Table::num(double(s.clock.rtt_ns) / 1e3, 3),
               s.clock.synced ? std::to_string(s.clock.samples) + " pings"
                              : "-"});
  }
  out << t.to_string();
}

/// The fabric standing in for this run's wire: --fabric wins, else the
/// backend recorded in the trace/shard metadata. Empty means the trace
/// predates backend stamping — no model table then.
std::string model_backend(const Options& opt, const TraceRun& run) {
  return opt.fabric.empty() ? run.m.backend : opt.fabric;
}

void print_wire_model(const Options& opt, const TraceRun& run,
                      const CommReport& r, std::ostream& out) {
  const std::string backend = model_backend(opt, run);
  if (backend.empty() || r.empty()) return;
  const perf::FabricModel fabric = perf::fabric_for_backend(backend);
  const std::vector<perf::WireAttribution> rows =
      perf::attribute_wire(r, fabric);
  if (rows.empty()) return;
  out << "-- measured vs machine model (backend " << backend << ") --\n"
      << perf::fabric_model_line(fabric) << "\n"
      << perf::wire_model_table(rows, fabric).to_string();
}

/// `comm --json`: the whole report as one machine-readable document, for
/// soak/CI assertions (provenance_mismatch flag, non-empty wait matrix).
void write_comm_json(const Options& opt, const std::vector<TraceRun>& runs,
                     const std::vector<CommReport>& reports,
                     std::ostream& out) {
  const BuildInfo& bi = build_info();
  JsonWriter w(out);
  w.begin_object();
  w.kv("report", "comm");
  w.kv("git_sha", bi.git_sha);
  w.kv("build_type", bi.build_type);
  w.key("runs").begin_array();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const TraceRun& run = runs[i];
    w.begin_object();
    w.kv("trace", run.path);
    w.kv("threads", run.m.threads);
    w.kv("backend", run.m.backend);
    w.kv("git_sha", run.m.git_sha);
    w.kv("build_type", run.m.build_type);
    w.kv("provenance_mismatch", run.provenance_mismatch);
    w.key("warnings").begin_array();
    for (const std::string& s : run.m.warnings) w.value(s);
    w.end_array();
    w.key("comm");
    write_comm_json_into(w, reports[i]);
    const std::string backend = model_backend(opt, run);
    if (!backend.empty() && !reports[i].empty()) {
      const perf::FabricModel fabric = perf::fabric_for_backend(backend);
      w.key("wire_model");
      write_wire_model_json_into(w, perf::attribute_wire(reports[i], fabric),
                                 fabric);
    }
    w.key("liveness").begin_array();
    for (const TelemetryShard& s : run.m.shards) {
      w.begin_object();
      w.kv("rank", s.rank);
      w.kv("round", s.round);
      w.kv("pid", s.pid);
      w.kv("truncated", s.truncated);
      w.kv("flushes", s.flushes);
      w.kv("start_us", s.merged_base_us);
      w.kv("last_flush_us", s.merged_base_us + s.last_flush_us);
      if (!s.truncated) w.kv("end_us", s.merged_base_us + s.end_us);
      w.key("clock").begin_object();
      w.kv("synced", s.clock.synced);
      w.kv("offset_ns", std::to_string(s.clock.offset_ns));
      w.kv("rtt_ns", std::to_string(s.clock.rtt_ns));
      w.kv("samples", s.clock.samples);
      w.end_object();
      w.kv("fault_spec", s.fault_spec);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << "\n";
}

/// Fig. 16-18-style cross-trace comparison: one row per (trace, level,
/// strategy) so two runs of the same case under different strategies (or
/// transports) line up.
void print_comm_comparison(const std::vector<TraceRun>& runs,
                           const std::vector<CommReport>& reports,
                           std::ostream& out) {
  out << "== strategy comparison (" << runs.size() << " traces) ==\n";
  Table t({"trace", "level", "strategy", "msgs", "wait ms", "wait/msg (us)",
           "crit path ms"});
  for (std::size_t i = 0; i < runs.size(); ++i) {
    for (const CommGroup& g : reports[i].groups) {
      t.add_row({runs[i].path,
                 g.level >= 0 ? std::to_string(g.level) : "-",
                 strategy_name(g.strat), std::to_string(g.messages),
                 Table::num(g.wait_s * 1e3, 3),
                 Table::num(g.messages > 0
                                ? g.wait_s * 1e6 / double(g.messages)
                                : 0,
                            3),
                 Table::num(g.critical_path_s * 1e3, 3)});
    }
  }
  out << t.to_string();
}

// --- convergence rollup ---------------------------------------------------

/// Residual trajectory and per-level time of one shard's (non-empty)
/// cycle records. Orders dropped span the first and last finite
/// residuals: a rolled-back guarded attempt records a non-finite one.
void print_convergence(const std::string& label,
                       const std::vector<CycleRecord>& records,
                       std::ostream& out) {
  out << "== convergence: " << label << " (" << records.size()
      << " cycles) ==\n";
  double r0 = 0, rn = 0;
  for (const CycleRecord& rec : records)
    if (std::isfinite(rec.residual)) {
      if (r0 == 0) r0 = rec.residual;
      rn = rec.residual;
    }
  Table s({"metric", "value"});
  s.add_row({"solver", records.front().solver});
  s.add_row({"cycles", std::to_string(records.size())});
  s.add_row({"first residual", Table::num(r0, 4)});
  s.add_row({"last residual", Table::num(rn, 4)});
  s.add_row({"orders dropped",
             Table::num(r0 > 0 && rn > 0 ? std::log10(r0 / rn) : 0, 3)});
  out << s.to_string();

  // Mean exclusive seconds per level per cycle, over all cycles.
  std::map<std::int64_t, double> level_s;
  for (const CycleRecord& rec : records)
    for (const LevelSeconds& l : rec.levels) level_s[l.level] += l.seconds;
  if (level_s.empty()) return;
  double sum = 0;
  for (const auto& [lvl, sec] : level_s) sum += sec;
  out << "-- per-level rollup (exclusive, all cycles) --\n";
  Table t({"level", "total s", "s/cycle", "share"});
  for (const auto& [lvl, sec] : level_s) {
    t.add_row({std::to_string(lvl), Table::num(sec, 4),
               Table::num(sec / double(records.size()), 4),
               Table::num(sum > 0 ? sec / sum : 0, 3)});
  }
  out << t.to_string();
}

/// The trace path, plus the shard's rank and round when there are several.
std::string shard_label(const TraceRun& run, const TelemetryShard& s) {
  if (run.m.shards.size() <= 1) return run.path;
  return run.path + " rank " + std::to_string(s.rank) + " round " +
         std::to_string(s.round);
}

/// One rollup per solve of each shard that carries cycle records, in
/// order of first record. Records without a solve id (written before ids
/// existed) share one series, as one shard's records always did.
void print_run_convergence(const TraceRun& run, std::ostream& out) {
  for (const TelemetryShard& s : run.m.shards) {
    std::vector<std::uint64_t> ids;
    std::map<std::uint64_t, std::vector<CycleRecord>> solves;
    for (const CycleRecord& rec : s.conv) {
      auto& series = solves[rec.solve_id];
      if (series.empty()) ids.push_back(rec.solve_id);
      series.push_back(rec);
    }
    for (const std::uint64_t id : ids) {
      std::string label = shard_label(run, s);
      if (ids.size() > 1) label += " solve " + std::to_string(id);
      print_convergence(label, solves[id], out);
    }
  }
}

/// Each shard's non-zero resil.* counters: the recovery events (guarded
/// rollbacks and backoffs, halo retransmits, ...) of the run.
void print_recovery(const TraceRun& run, std::ostream& out) {
  for (const TelemetryShard& s : run.m.shards) {
    Table t({"counter", "value"});
    for (const auto& [name, value] : s.metrics.counters)
      if (value != 0 && name.rfind("resil.", 0) == 0)
        t.add_row({name, std::to_string(value)});
    if (t.rows().empty()) continue;
    out << "== recovery counters: " << shard_label(run, s) << " ==\n"
        << t.to_string();
  }
}

// --- perf-regression gate -------------------------------------------------

struct GateResult {
  Table table{{"series", "key", "metric", "baseline", "current", "delta",
               "verdict"}};
  int regressions = 0;
  int compared = 0;
  int skipped = 0;
};

std::string pct(double baseline, double current) {
  if (baseline == 0) return "n/a";
  return Table::num(100.0 * (current - baseline) / baseline, 1) + "%";
}

enum class MetricKind { Timing, Count, Exact };

/// How the gate treats a numeric field, by column/field name. Unknown
/// fields are informational only.
bool metric_kind_of(const std::string& name, MetricKind& kind) {
  if (name == "ns_per_edge" || name == "exchange (us)" ||
      name == "wait/exchange (us)") {
    kind = MetricKind::Timing;
    return true;
  }
  if (name == "allocs/exchange") {
    kind = MetricKind::Count;
    return true;
  }
  if (name == "messages" || name == "ranks" || name == "total MB" ||
      name == "mean msg (KB)") {
    kind = MetricKind::Exact;
    return true;
  }
  return false;
}

void compare_metric(GateResult& g, const std::string& series,
                    const std::string& key, const std::string& metric,
                    MetricKind kind, double base, double cur, double tol,
                    const std::string& skip_reason) {
  const std::string b = Table::num(base, 4), c = Table::num(cur, 4);
  if (!skip_reason.empty()) {
    ++g.skipped;
    g.table.add_row(
        {series, key, metric, b, c, pct(base, cur), "skipped: " + skip_reason});
    return;
  }
  ++g.compared;
  std::string verdict = "ok";
  switch (kind) {
    case MetricKind::Timing:
      if (cur > base * (1.0 + tol)) {
        verdict = "REGRESSION";
        ++g.regressions;
      } else if (base > cur * (1.0 + tol)) {
        verdict = "improved";
      }
      break;
    case MetricKind::Count:
      if (cur > base) {
        verdict = "REGRESSION";
        ++g.regressions;
      } else if (cur < base) {
        verdict = "improved";
      }
      break;
    case MetricKind::Exact:
      // Cells round-trip through %.4g table formatting: allow 0.5%.
      if (std::abs(cur - base) > 0.005 * std::max(std::abs(base), 1e-12)) {
        verdict = "REGRESSION (value changed)";
        ++g.regressions;
      }
      break;
  }
  g.table.add_row({series, key, metric, b, c, pct(base, cur), verdict});
}

/// micro_kernels schema: {"bench":"micro_kernels","hardware_threads":N,
/// "kernels":[{"kernel","threads","ns_per_edge",...}]}.
void gate_micro_kernels(GateResult& g, const JsonValue& baseline,
                        const JsonValue& current, double tol) {
  const JsonValue* cur_rows = current.find("kernels");
  const JsonValue* base_rows = baseline.find("kernels");
  if (cur_rows == nullptr || base_rows == nullptr) return;
  const auto hw =
      std::int64_t(current.number_or("hardware_threads",
                                     double(hardware_threads())));
  auto key_of = [](const JsonValue& row) {
    return row.string_or("kernel", "?") + " t=" +
           std::to_string(std::int64_t(row.number_or("threads", 1)));
  };
  for (const JsonValue& brow : base_rows->items()) {
    const JsonValue* crow = nullptr;
    for (const JsonValue& c : cur_rows->items())
      if (key_of(c) == key_of(brow)) crow = &c;
    const std::string key = key_of(brow);
    if (crow == nullptr) {
      ++g.regressions;
      g.table.add_row({"kernels", key, "ns_per_edge",
                       Table::num(brow.number_or("ns_per_edge", 0), 4), "-",
                       "n/a", "REGRESSION (row missing)"});
      continue;
    }
    const auto threads = std::int64_t(brow.number_or("threads", 1));
    std::string skip;
    if (threads > hw) {
      // ROADMAP: a single-hardware-thread host cannot measure the sweep;
      // the multi-thread rows only time pool oversubscription there.
      skip = hw == 1 ? "single hardware thread"
                     : "host has only " + std::to_string(hw) +
                           " hardware threads";
    }
    compare_metric(g, "kernels", key, "ns_per_edge", MetricKind::Timing,
                   brow.number_or("ns_per_edge", 0),
                   crow->number_or("ns_per_edge", 0), tol, skip);
  }
}

/// bench::Reporter schema: {"bench","meta",...,"tables":{series:[rows]}}.
/// Rows are matched within a series by the value of their first member
/// (e.g. "strategy", "schedule"). A baseline series or row the current
/// report lacks is a regression: renaming or dropping a table must not let
/// its rows through ungated.
void gate_reporter_tables(GateResult& g, const JsonValue& baseline,
                          const JsonValue& current, double tol) {
  const JsonValue* base_tables = baseline.find("tables");
  if (base_tables == nullptr) return;
  const JsonValue* cur_tables = current.find("tables");
  for (const auto& [series, brows] : base_tables->members()) {
    if (!brows.is_array()) continue;
    const JsonValue* crows =
        cur_tables == nullptr ? nullptr : cur_tables->find(series);
    if (crows == nullptr || !crows->is_array()) {
      ++g.regressions;
      g.table.add_row({series, "-", "-", "-", "-", "n/a",
                       "REGRESSION (series missing)"});
      continue;
    }
    auto key_of = [](const JsonValue& row) -> std::string {
      if (!row.is_object() || row.members().empty()) return "?";
      const JsonValue& v = row.members().front().second;
      return v.is_string() ? v.str() : Table::num(v.number(), 6);
    };
    for (const JsonValue& brow : brows.items()) {
      const JsonValue* crow = nullptr;
      for (const JsonValue& c : crows->items())
        if (key_of(c) == key_of(brow)) crow = &c;
      const std::string key = key_of(brow);
      if (crow == nullptr) {
        ++g.regressions;
        g.table.add_row({series, key, "-", "-", "-", "n/a",
                         "REGRESSION (row missing)"});
        continue;
      }
      for (const auto& [field, bval] : brow.members()) {
        MetricKind kind;
        if (!bval.is_number() || !metric_kind_of(field, kind)) continue;
        const JsonValue* cval = crow->find(field);
        if (cval == nullptr || !cval->is_number()) continue;
        compare_metric(g, series, key, field, kind, bval.number(),
                       cval->number(), tol, "");
      }
    }
  }
}

int run_gate(const Options& opt, const JsonValue& current,
             std::ostream& out, std::ostream& err) {
  std::string base_text;
  if (!read_file(opt.baseline, base_text, err)) return kUsage;
  JsonValue baseline;
  std::string jerr;
  if (!parse_json(base_text, baseline, &jerr)) {
    err << "columbia_report: " << opt.baseline << ": " << jerr << "\n";
    return kUsage;
  }
  const std::string bname = baseline.string_or("bench", "");
  if (bname != current.string_or("bench", "")) {
    err << "columbia_report: baseline is '" << bname << "' but current is '"
        << current.string_or("bench", "") << "'\n";
    return kUsage;
  }
  GateResult g;
  if (bname == "micro_kernels")
    gate_micro_kernels(g, baseline, current, opt.tolerance);
  else
    gate_reporter_tables(g, baseline, current, opt.tolerance);

  out << "== perf gate: " << bname << " vs " << opt.baseline
      << " (tolerance " << Table::num(opt.tolerance * 100, 3) << "%) ==\n";
  out << g.table.to_string();
  out << g.compared << " compared, " << g.skipped << " skipped, "
      << g.regressions << " regression" << (g.regressions == 1 ? "" : "s")
      << "\n";
  if (g.compared == 0 && g.regressions == 0) {
    err << "columbia_report: warning: nothing compared (schema mismatch?)\n";
  }
  return g.regressions > 0 ? kRegression : kOk;
}

}  // namespace

int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err) {
  Options opt;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--help" || a == "-h") {
      out << kUsageText;
      return kOk;
    }
    if (a == "--version") {
      out << version_line() << "\n";
      return kOk;
    }
    if (a == "comm" && opt.files.empty() && !opt.comm) {
      opt.comm = true;
      continue;
    }
    if (a == "--baseline") {
      if (i + 1 >= args.size()) {
        err << "columbia_report: --baseline needs a path\n";
        return kUsage;
      }
      opt.baseline = args[++i];
      continue;
    }
    if (a == "--fabric") {
      if (i + 1 >= args.size()) {
        err << "columbia_report: --fabric needs a backend name\n";
        return kUsage;
      }
      opt.fabric = args[++i];
      continue;
    }
    if (a == "--json") {
      opt.json = true;
      continue;
    }
    if (a == "--tolerance") {
      if (i + 1 >= args.size() ||
          !parse_tolerance(args[i + 1], opt.tolerance)) {
        err << "columbia_report: bad --tolerance (want '10%' or 0.1)\n";
        return kUsage;
      }
      opt.tolerance_set = true;
      ++i;
      continue;
    }
    if (!a.empty() && a[0] == '-') {
      err << "columbia_report: unknown option " << a << "\n" << kUsageText;
      return kUsage;
    }
    opt.files.push_back(a);
  }
  if (opt.files.empty()) {
    err << kUsageText;
    return kUsage;
  }

  // Provenance header on every emitted report (satellite of ISSUE 7).
  // --json keeps stdout a single parseable document instead.
  if (!opt.json) out << version_line() << "\n";

  std::vector<TraceRun> traces;
  std::vector<TelemetryShard> shard_inputs;
  for (const std::string& path : opt.files) {
    std::string text;
    if (!read_file(path, text, err)) return kUsage;
    // Telemetry shards first: they are JSONL, not one JSON value, and all
    // shard files of an invocation merge into ONE clock-aligned run.
    if (TelemetryShard shard; parse_shard(text, shard)) {
      shard.path = path;
      shard_inputs.push_back(std::move(shard));
      continue;
    }
    JsonValue doc;
    std::string jerr;
    if (!parse_json(text, doc, &jerr)) {
      err << "columbia_report: " << path << ": cannot parse (" << jerr
          << ")\n";
      return kUsage;
    }
    if (doc.find("traceEvents") != nullptr) {
      TraceRun run;
      run.path = path;
      if (!parse_merged_trace(doc, run.m, &jerr)) {
        err << "columbia_report: " << path << ": " << jerr << "\n";
        return kUsage;
      }
      traces.push_back(std::move(run));
      continue;
    }
    if (opt.comm) {
      err << "columbia_report: " << path
          << ": the comm subcommand wants Chrome trace files\n";
      return kUsage;
    }
    if (doc.find("bench") != nullptr) {
      if (opt.baseline.empty()) {
        err << "columbia_report: " << path
            << " is a bench report; pass --baseline PATH to gate it\n";
        return kUsage;
      }
      return run_gate(opt, doc, out, err);
    }
    err << "columbia_report: " << path
        << ": unrecognized JSON document (no traceEvents/bench)\n";
    return kUsage;
  }

  if (!shard_inputs.empty()) {
    TraceRun run;
    run.path = shard_inputs.front().path;
    if (shard_inputs.size() > 1)
      run.path +=
          " (+" + std::to_string(shard_inputs.size() - 1) + " shards)";
    run.m = merge_shards(std::move(shard_inputs));
    traces.push_back(std::move(run));
  }
  for (TraceRun& run : traces) {
    run.profile = build_profile(run.m.events);
    for (const TelemetryShard& s : run.m.shards)
      add_comm_counters(s.metrics, run.profile);
  }

  // Provenance guard: mismatches across shards (from the merge) and
  // between the trace and this binary warn on stderr; --json additionally
  // carries them as a machine-readable flag.
  for (TraceRun& run : traces) {
    check_provenance(run);
    for (const std::string& w : run.m.warnings)
      err << "columbia_report: warning: " << run.path << ": " << w << "\n";
  }

  if (opt.comm) {
    std::vector<CommReport> reports;
    reports.reserve(traces.size());
    for (const TraceRun& run : traces)
      reports.push_back(build_comm_report(run.m.events));
    if (opt.json) {
      write_comm_json(opt, traces, reports, out);
      return kOk;
    }
    for (std::size_t i = 0; i < traces.size(); ++i) {
      print_comm_run(traces[i], reports[i], out);
      print_liveness(traces[i], out);
      print_wire_model(opt, traces[i], reports[i], out);
    }
    if (traces.size() > 1) print_comm_comparison(traces, reports, out);
    return kOk;
  }

  for (const TraceRun& run : traces) {
    print_single_run(run, out);
    print_run_convergence(run, out);
    print_recovery(run, out);
  }
  if (traces.size() > 1) print_scaling_table(traces, out);
  return kOk;
}

}  // namespace columbia::obs::report
