#include "obs/report_cli.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
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
    "  FILE               Chrome trace JSON (--trace / write_chrome_trace),\n"
    "                     convergence JSONL (--jsonl / open_jsonl), a\n"
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
    "critical-path estimate); several files form a scaling series with a\n"
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
  return std::string("columbia_report ") + bi.git_sha + " (" +
         bi.build_type + ", obs " + (bi.obs_compiled ? "on" : "off") + ")";
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

// --- trace ingest ---------------------------------------------------------

/// One rank shard's liveness story on the merged timeline: when it
/// started, when the autoflush thread last proved it alive, whether it
/// reached its footer, and what the clock sync against member 0 measured.
struct LivenessRow {
  int rank = 0;
  int round = 0;
  std::int64_t pid = 0;
  bool truncated = true;
  int flushes = 0;
  double start_us = 0;       // merged timeline (member 0's clock)
  double last_flush_us = 0;  // merged timeline
  double end_us = 0;         // merged timeline; valid when !truncated
  ShardClock clock;
  std::string fault_spec;
};

struct TraceRun {
  std::string path;
  std::int64_t threads = 0;  // from "columbia" metadata, else max tid + 1
  std::string git_sha;
  std::string build_type;
  std::string backend;  // wire backend the run recorded over ("" if unknown)
  PhaseProfile profile;
  std::vector<PhaseEvent> events;  // kept for the comm observatory
  std::vector<LivenessRow> liveness;   // per-shard, for multi-process runs
  std::vector<std::string> warnings;   // merge provenance / sync anomalies
  bool provenance_mismatch = false;    // see check_provenance()
};

/// Raw-ns clock fields are JSON strings in shard documents (doubles lose
/// precision past 2^53); merged-trace metadata round-trips them the same
/// way, so accept either spelling.
std::int64_t i64_field(const JsonValue& o, const char* key) {
  const JsonValue* v = o.find(key);
  if (v == nullptr) return 0;
  if (v->is_number()) return std::int64_t(v->number());
  if (v->is_string()) return std::strtoll(v->str().c_str(), nullptr, 10);
  return 0;
}

ShardClock clock_field(const JsonValue& o, const char* key) {
  ShardClock c;
  const JsonValue* v = o.find(key);
  if (v == nullptr || !v->is_object()) return c;
  const JsonValue* s = v->find("synced");
  c.synced = s != nullptr && s->is_bool() && s->boolean();
  c.offset_ns = i64_field(*v, "offset_ns");
  c.rtt_ns = i64_field(*v, "rtt_ns");
  c.samples = int(v->number_or("samples", 0));
  return c;
}

bool ingest_trace(const std::string& path, const JsonValue& doc,
                  TraceRun& run, std::ostream& err) {
  const JsonValue* evs = doc.find("traceEvents");
  if (evs == nullptr || !evs->is_array()) {
    err << "columbia_report: " << path << ": no traceEvents array\n";
    return false;
  }
  std::vector<PhaseEvent> events;
  events.reserve(evs->items().size());
  std::int64_t max_tid = 0;
  for (const JsonValue& e : evs->items()) {
    if (!e.is_object()) continue;
    const std::string ph = e.string_or("ph", "");
    if (ph != "B" && ph != "E") continue;  // ignore metadata/counter events
    PhaseEvent pe;
    pe.name = e.string_or("name", "");
    pe.phase = ph[0];
    pe.ts_us = e.number_or("ts", 0);
    pe.tid = int(e.number_or("tid", 0));
    max_tid = std::max(max_tid, std::int64_t(pe.tid));
    if (const JsonValue* args = e.find("args");
        args != nullptr && args->is_object()) {
      pe.level = std::int64_t(args->number_or("level", -1));
      pe.rank = std::int64_t(args->number_or("rank", -1));
      pe.nbr = std::int64_t(args->number_or("nbr", -1));
      pe.strat = std::int64_t(args->number_or("strat", -1));
      pe.bytes = std::int64_t(args->number_or("bytes", -1));
      pe.round = std::int64_t(args->number_or("round", 0));
    }
    events.push_back(std::move(pe));
  }
  run.path = path;
  run.profile = build_profile(events);
  run.events = std::move(events);
  if (const JsonValue* meta = doc.find("columbia");
      meta != nullptr && meta->is_object()) {
    run.threads = std::int64_t(meta->number_or("threads", 0));
    run.git_sha = meta->string_or("git_sha", "");
    run.build_type = meta->string_or("build_type", "");
    run.backend = meta->string_or("backend", "");
    if (const JsonValue* ws = meta->find("warnings");
        ws != nullptr && ws->is_array())
      for (const JsonValue& wv : ws->items())
        if (wv.is_string()) run.warnings.push_back(wv.str());
    if (const JsonValue* sh = meta->find("shards");
        sh != nullptr && sh->is_array()) {
      for (const JsonValue& sv : sh->items()) {
        if (!sv.is_object()) continue;
        LivenessRow lr;
        lr.rank = int(sv.number_or("rank", 0));
        lr.round = int(sv.number_or("round", 0));
        lr.pid = std::int64_t(sv.number_or("pid", 0));
        const JsonValue* tr = sv.find("truncated");
        lr.truncated = tr != nullptr && tr->is_bool() && tr->boolean();
        lr.flushes = int(sv.number_or("flushes", 0));
        lr.start_us = sv.number_or("start_us", 0);
        lr.last_flush_us = sv.number_or("last_flush_us", 0);
        lr.end_us = sv.number_or("end_us", 0);
        lr.clock = clock_field(sv, "clock");
        lr.fault_spec = sv.string_or("fault_spec", "");
        run.liveness.push_back(std::move(lr));
      }
    }
  }
  if (run.threads <= 0) run.threads = max_tid + 1;
  return true;
}

/// A TraceRun straight from merged telemetry shards, bypassing the Chrome
/// trace round-trip: the same events `write_merged_chrome_trace` would
/// emit, so both the phase profile and the comm observatory accept it.
TraceRun from_merged_shards(MergedTelemetry m, std::string label) {
  TraceRun run;
  run.path = std::move(label);
  run.git_sha = m.git_sha;
  run.build_type = m.build_type;
  run.backend = m.backend;
  run.warnings = std::move(m.warnings);
  std::set<int> tids;
  for (const PhaseEvent& e : m.events) tids.insert(e.tid);
  run.threads = std::int64_t(tids.size());
  if (run.threads <= 0) run.threads = 1;
  run.profile = build_profile(m.events);
  run.events = std::move(m.events);
  for (const TelemetryShard& s : m.shards) {
    LivenessRow lr;
    lr.rank = s.rank;
    lr.round = s.round;
    lr.pid = s.pid;
    lr.truncated = s.truncated;
    lr.flushes = s.flushes;
    lr.start_us = s.merged_base_us;
    lr.last_flush_us = s.merged_base_us + s.last_flush_us;
    lr.end_us = s.truncated ? 0 : s.merged_base_us + s.end_us;
    lr.clock = s.clock;
    lr.fault_spec = s.fault_spec;
    run.liveness.push_back(std::move(lr));
  }
  return run;
}

/// Provenance guard: the merge already cross-checks shard-vs-shard stamps
/// (those arrive in run.warnings); here the trace is additionally checked
/// against the analyzing binary, and the JSON `provenance_mismatch` flag
/// is derived. Clock-sync anomalies warn without raising the flag.
void check_provenance(TraceRun& run) {
  const BuildInfo& bi = build_info();
  if (!run.git_sha.empty() && run.git_sha != bi.git_sha)
    run.warnings.push_back("provenance mismatch: trace recorded at git " +
                           run.git_sha + " but this binary is " + bi.git_sha);
  if (!run.build_type.empty() && run.build_type != bi.build_type)
    run.warnings.push_back("provenance mismatch: trace recorded by a " +
                           run.build_type + " build but this binary is " +
                           bi.build_type);
  for (const std::string& w : run.warnings)
    if (w.find("mismatch") != std::string::npos) run.provenance_mismatch = true;
}

void print_single_run(const TraceRun& run, std::ostream& out) {
  out << "== trace: " << run.path << " (threads=" << run.threads;
  if (!run.git_sha.empty()) out << ", git " << run.git_sha;
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
              return a.threads < b.threads;
            });
  const TraceRun& base = runs.front();
  out << "== scaling series (reference: " << base.path << ", threads="
      << base.threads << ") ==\n";
  Table t({"threads", "wall s", "speedup", "ideal", "efficiency",
           "comm frac", "trace"});
  for (const TraceRun& r : runs) {
    const double speedup =
        r.profile.wall_s > 0 ? base.profile.wall_s / r.profile.wall_s : 0;
    const double ideal = double(r.threads) / double(base.threads);
    t.add_row({std::to_string(r.threads), Table::num(r.profile.wall_s, 4),
               Table::num(speedup, 3), Table::num(ideal, 3),
               Table::num(ideal > 0 ? speedup / ideal : 0, 3),
               Table::num(r.profile.comm_fraction, 3), r.path});
  }
  out << t.to_string();
}

// --- comm observatory (halo.xchg spans) -----------------------------------

void print_comm_run(const TraceRun& run, const CommReport& r,
                    std::ostream& out) {
  out << "== comm observatory: " << run.path << " (threads=" << run.threads;
  if (!run.git_sha.empty()) out << ", git " << run.git_sha;
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

void print_liveness(const TraceRun& run, std::ostream& out) {
  if (run.liveness.empty()) return;
  out << "-- rank liveness (merged timeline, member 0's clock) --\n";
  Table t({"rank", "round", "pid", "status", "flushes", "start ms",
           "last flush ms", "end ms", "offset us", "rtt us", "sync"});
  for (const LivenessRow& r : run.liveness) {
    t.add_row({std::to_string(r.rank), std::to_string(r.round),
               std::to_string(r.pid), r.truncated ? "TRUNCATED" : "complete",
               std::to_string(r.flushes), Table::num(r.start_us / 1e3, 3),
               Table::num(r.last_flush_us / 1e3, 3),
               r.truncated ? "-" : Table::num(r.end_us / 1e3, 3),
               Table::num(double(r.clock.offset_ns) / 1e3, 3),
               Table::num(double(r.clock.rtt_ns) / 1e3, 3),
               r.clock.synced ? std::to_string(r.clock.samples) + " pings"
                              : "-"});
  }
  out << t.to_string();
}

/// The fabric standing in for this run's wire: --fabric wins, else the
/// backend recorded in the trace/shard metadata. Empty means the trace
/// predates backend stamping — no model table then.
std::string model_backend(const Options& opt, const TraceRun& run) {
  return opt.fabric.empty() ? run.backend : opt.fabric;
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
    w.kv("threads", run.threads);
    w.kv("backend", run.backend);
    w.kv("git_sha", run.git_sha);
    w.kv("build_type", run.build_type);
    w.kv("provenance_mismatch", run.provenance_mismatch);
    w.key("warnings").begin_array();
    for (const std::string& s : run.warnings) w.value(s);
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
    for (const LivenessRow& lr : run.liveness) {
      w.begin_object();
      w.kv("rank", lr.rank);
      w.kv("round", lr.round);
      w.kv("pid", lr.pid);
      w.kv("truncated", lr.truncated);
      w.kv("flushes", lr.flushes);
      w.kv("start_us", lr.start_us);
      w.kv("last_flush_us", lr.last_flush_us);
      if (!lr.truncated) w.kv("end_us", lr.end_us);
      w.key("clock").begin_object();
      w.kv("synced", lr.clock.synced);
      w.kv("offset_ns", std::to_string(lr.clock.offset_ns));
      w.kv("rtt_ns", std::to_string(lr.clock.rtt_ns));
      w.kv("samples", lr.clock.samples);
      w.end_object();
      w.kv("fault_spec", lr.fault_spec);
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

// --- convergence JSONL ingest --------------------------------------------

void print_convergence(const std::string& path,
                       const std::vector<JsonValue>& records,
                       std::ostream& out) {
  out << "== convergence: " << path << " (" << records.size()
      << " cycles) ==\n";
  if (records.empty()) return;
  const double r0 = records.front().number_or("residual", 0);
  const double rn = records.back().number_or("residual", 0);
  Table s({"metric", "value"});
  s.add_row({"solver", records.front().string_or("solver", "?")});
  s.add_row({"cycles", std::to_string(records.size())});
  s.add_row({"first residual", Table::num(r0, 4)});
  s.add_row({"last residual", Table::num(rn, 4)});
  s.add_row({"orders dropped",
             Table::num(r0 > 0 && rn > 0 ? std::log10(r0 / rn) : 0, 3)});
  out << s.to_string();

  // Mean exclusive seconds per level per cycle, over all cycles.
  std::map<std::int64_t, double> level_s;
  for (const JsonValue& rec : records) {
    const JsonValue* levels = rec.find("levels");
    if (levels == nullptr || !levels->is_array()) continue;
    for (const JsonValue& l : levels->items())
      level_s[std::int64_t(l.number_or("level", -1))] +=
          l.number_or("seconds", 0);
  }
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
    if (is_shard_text(text)) {
      TelemetryShard shard;
      std::string serr;
      if (!parse_shard(text, shard, &serr)) {
        err << "columbia_report: " << path << ": " << serr << "\n";
        return kUsage;
      }
      shard.path = path;
      shard_inputs.push_back(std::move(shard));
      continue;
    }
    JsonValue doc;
    if (parse_json(text, doc)) {
      if (doc.find("traceEvents") != nullptr) {
        TraceRun run;
        if (!ingest_trace(path, doc, run, err)) return kUsage;
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
    if (opt.comm) {
      err << "columbia_report: " << path
          << ": the comm subcommand wants Chrome trace files\n";
      return kUsage;
    }
    // Not a single JSON value: try JSONL convergence records.
    std::string jerr;
    const std::vector<JsonValue> records = parse_jsonl(text, &jerr);
    if (!records.empty() && records.front().find("cycle") != nullptr) {
      print_convergence(path, records, out);
      continue;
    }
    err << "columbia_report: " << path << ": cannot parse ("
        << (jerr.empty() ? "empty document" : jerr) << ")\n";
    return kUsage;
  }

  if (!shard_inputs.empty()) {
    std::string label = shard_inputs.front().path;
    if (shard_inputs.size() > 1)
      label += " (+" + std::to_string(shard_inputs.size() - 1) + " shards)";
    traces.push_back(
        from_merged_shards(merge_shards(std::move(shard_inputs)), label));
  }

  // Provenance guard: mismatches across shards (from the merge) and
  // between the trace and this binary warn on stderr; --json additionally
  // carries them as a machine-readable flag.
  for (TraceRun& run : traces) {
    check_provenance(run);
    for (const std::string& w : run.warnings)
      err << "columbia_report: warning: " << run.path << ": " << w << "\n";
  }

  if (opt.comm) {
    std::vector<CommReport> reports;
    reports.reserve(traces.size());
    for (const TraceRun& run : traces)
      reports.push_back(build_comm_report(run.events));
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

  for (const TraceRun& run : traces) print_single_run(run, out);
  if (traces.size() > 1) print_scaling_table(traces, out);
  return kOk;
}

}  // namespace columbia::obs::report
