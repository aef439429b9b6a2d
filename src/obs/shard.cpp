#include "obs/shard.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <ostream>
#include <set>
#include <sstream>
#include <thread>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "support/build_info.hpp"
#include "support/durable.hpp"
#include "support/timer.hpp"

namespace columbia::obs {

namespace {

/// Steady-clock nanosecond quantities can exceed the 53-bit integers a
/// JSON double round-trips (a multi-host offset carries the boot-time
/// difference), so the shard serializes them as decimal strings; small
/// derived times travel as relative microseconds in plain numbers.
void write_clock_into(JsonWriter& w, const char* key, const ShardClock& c) {
  w.key(key).begin_object();
  w.kv("synced", c.synced);
  w.kv("offset_ns", std::to_string(c.offset_ns));
  w.kv("rtt_ns", std::to_string(c.rtt_ns));
  w.kv("samples", c.samples);
  w.end_object();
}

std::int64_t parse_i64(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return 0;
  if (v->is_number()) return std::int64_t(v->number());
  if (!v->is_string()) return 0;
  char* end = nullptr;
  const long long n = std::strtoll(v->str().c_str(), &end, 10);
  return end != v->str().c_str() ? std::int64_t(n) : 0;
}

ShardClock parse_clock(const JsonValue& parent, const std::string& key) {
  ShardClock c;
  const JsonValue* v = parent.find(key);
  if (v == nullptr || !v->is_object()) return c;
  const JsonValue* synced = v->find("synced");
  c.synced = synced != nullptr && synced->is_bool() && synced->boolean();
  c.offset_ns = parse_i64(*v, "offset_ns");
  c.rtt_ns = parse_i64(*v, "rtt_ns");
  c.samples = int(v->number_or("samples", 0));
  return c;
}

/// A JSON number as an int64: NaN reads 0, and out-of-range values clamp
/// (converting them directly would be undefined).
std::int64_t clamped_i64(double v) {
  if (std::isnan(v)) return 0;
  constexpr double kMax = 9.2e18;  // just below 2^63
  return std::int64_t(std::clamp(v, -kMax, kMax));
}

/// A JSON number as a count: negatives read 0.
std::uint64_t clamped_count(double v) {
  return std::uint64_t(std::max<std::int64_t>(0, clamped_i64(v)));
}

/// The one JSON spelling of a cycle record, shared by the shard's "conv"
/// lines and the merged trace's per-shard "conv" arrays. Non-finite
/// values (a rolled-back attempt's residual) are written as null.
void write_cycle_record(JsonWriter& w, const CycleRecord& rec) {
  w.begin_object();
  w.kv("solver", rec.solver);
  if (rec.solve_id != 0) w.kv("solve", rec.solve_id);
  w.kv("cycle", rec.cycle);
  w.kv("residual", rec.residual);
  if (rec.has_forces) {
    w.kv("cl", rec.cl);
    w.kv("cd", rec.cd);
  }
  if (!rec.levels.empty()) {
    w.key("levels").begin_array();
    for (const LevelSeconds& l : rec.levels) {
      w.begin_object();
      w.kv("level", l.level);
      w.kv("seconds", l.seconds);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
}

/// A JSON number, or NaN for null (how the writer spells non-finite).
double number_or_nan(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->is_number()
             ? v->number()
             : std::numeric_limits<double>::quiet_NaN();
}

CycleRecord read_cycle_record(const JsonValue& v) {
  CycleRecord rec;
  rec.solver = v.string_or("solver", "");
  rec.solve_id = clamped_count(v.number_or("solve", 0));
  rec.cycle = int(v.number_or("cycle", 0));
  rec.residual = number_or_nan(v, "residual");
  rec.has_forces = v.find("cl") != nullptr;
  if (rec.has_forces) {
    rec.cl = number_or_nan(v, "cl");
    rec.cd = number_or_nan(v, "cd");
  }
  if (const JsonValue* ls = v.find("levels"); ls != nullptr && ls->is_array())
    for (const JsonValue& l : ls->items())
      rec.levels.push_back(
          {int(l.number_or("level", 0)), l.number_or("seconds", 0)});
  return rec;
}

/// The inverse of write_metrics_into (a shard's "metrics" line, a merged
/// trace's per-shard "metrics" entry).
MetricsSnapshot read_metrics(const JsonValue& v) {
  MetricsSnapshot m;
  if (const JsonValue* c = v.find("counters"); c != nullptr && c->is_object())
    for (const auto& [name, value] : c->members())
      if (value.is_number()) m.counters[name] = clamped_count(value.number());
  if (const JsonValue* g = v.find("gauges"); g != nullptr && g->is_object())
    for (const auto& [name, value] : g->members())
      if (value.is_number()) m.gauges[name] = clamped_i64(value.number());
  return m;
}

/// A 'B'/'E' event of a shard or a merged trace; false for anything else
/// (metadata rows, counters).
bool read_span_event(const JsonValue& e, PhaseEvent& pe) {
  const JsonValue* ph = e.find("ph");
  const std::string p = ph != nullptr && ph->is_string() ? ph->str() : "";
  if (p != "B" && p != "E") return false;
  pe.name = e.string_or("name", "");
  pe.phase = p[0];
  pe.ts_us = e.number_or("ts", 0);
  pe.tid = int(e.number_or("tid", 0));
  if (const JsonValue* args = e.find("args");
      args != nullptr && args->is_object()) {
    pe.level = std::int64_t(args->number_or("level", -1));
    pe.rank = std::int64_t(args->number_or("rank", -1));
    pe.nbr = std::int64_t(args->number_or("nbr", -1));
    pe.strat = std::int64_t(args->number_or("strat", -1));
    pe.bytes = std::int64_t(args->number_or("bytes", -1));
    pe.round = std::int64_t(args->number_or("round", 0));
  }
  return true;
}

/// The shard identity and provenance fields a shard header and a merged
/// trace's per-shard entry share.
void read_shard_meta(const JsonValue& h, TelemetryShard& out) {
  out.rank = int(h.number_or("rank", 0));
  out.ranks = int(h.number_or("ranks", 1));
  out.round = int(h.number_or("round", 0));
  out.pid = parse_i64(h, "pid");
  out.backend = h.string_or("backend", "");
  out.git_sha = h.string_or("git_sha", "");
  out.build_type = h.string_or("build_type", "");
  out.fault_spec = h.string_or("fault_spec", "");
  out.clock_base_ns = std::uint64_t(parse_i64(h, "clock_base_ns"));
  out.clock = parse_clock(h, "clock");
}

void write_header_line(std::ostream& os, const ShardOptions& opt,
                       std::uint64_t base_ns, const ShardClock& clock) {
  JsonWriter w(os);
  const BuildInfo& bi = build_info();
  w.begin_object();
  w.kv("telemetry_shard", 1);
  w.kv("rank", opt.rank);
  w.kv("ranks", opt.ranks);
  w.kv("round", opt.round);
  w.kv("pid", std::int64_t(::getpid()));
  w.kv("backend", opt.backend);
  w.kv("git_sha", bi.git_sha);
  w.kv("build_type", bi.build_type);
  w.kv("fault_spec", opt.fault_spec);
  w.kv("clock_base_ns", std::to_string(base_ns));
  write_clock_into(w, "clock", clock);
  w.end_object();
  os << '\n';
}

}  // namespace

// --- Recorder (rank-process side) ------------------------------------------

/// Owns the recorder's serialization lock and the optional autoflush
/// thread. A pimpl so the header stays free of <thread>/<mutex>.
struct FlightRecorder::Flusher {
  std::mutex mu;                 // guards write_image + clock/flush state
  std::mutex wake_mu;
  std::condition_variable wake;
  bool stop = false;
  std::thread thread;

  void start(int period_ms, FlightRecorder* rec) {
    thread = std::thread([this, period_ms, rec] {
      std::unique_lock<std::mutex> lock(wake_mu);
      while (!stop) {
        wake.wait_for(lock, std::chrono::milliseconds(period_ms));
        if (stop) break;
        lock.unlock();
        rec->flush();
        lock.lock();
      }
    });
  }

  void halt() {
    {
      std::lock_guard<std::mutex> lock(wake_mu);
      stop = true;
    }
    wake.notify_all();
    if (thread.joinable()) thread.join();
  }

  ~Flusher() { halt(); }
};

FlightRecorder::FlightRecorder(const ShardOptions& opt)
    : opt_(opt), flusher_(std::make_unique<Flusher>()) {
  // A forked child inherits the parent's trace buffers verbatim; this
  // shard must carry only what THIS rank records.
  reset_trace();
  set_enabled(true);
  base_ns_ = trace_epoch_ns();
  flush();
  if (opt_.flush_ms > 0) flusher_->start(opt_.flush_ms, this);
}

FlightRecorder::~FlightRecorder() {
  flusher_->halt();
  if (!finalized_) {
    // No footer: whoever reads this shard sees a truncated (but complete
    // through the last flush) recording — the crashed-rank signature.
    std::lock_guard<std::mutex> lock(flusher_->mu);
    write_image(false, ShardClock{});
  }
}

void FlightRecorder::set_clock(const ShardClock& clock) {
  {
    std::lock_guard<std::mutex> lock(flusher_->mu);
    clock_ = clock;
  }
  flush();
}

bool FlightRecorder::flush() {
  std::lock_guard<std::mutex> lock(flusher_->mu);
  if (finalized_) return true;
  return write_image(false, ShardClock{});
}

bool FlightRecorder::finalize(const ShardClock& end_clock) {
  flusher_->halt();
  std::lock_guard<std::mutex> lock(flusher_->mu);
  if (finalized_) return true;
  finalized_ = true;
  return write_image(true, end_clock);
}

bool FlightRecorder::write_image(bool with_footer,
                                 const ShardClock& end_clock) {
  std::ostringstream os;
  write_header_line(os, opt_, base_ns_, clock_);

  for (const TraceEvent& e : trace_snapshot()) {
    JsonWriter w(os);
    w.begin_object();
    w.kv("name", e.name);
    w.kv("ph", std::string(1, e.phase));
    const std::uint64_t rel = e.ts_ns >= base_ns_ ? e.ts_ns - base_ns_ : 0;
    w.kv("ts", double(rel) / 1e3);
    w.kv("tid", std::int64_t(e.tid));
    if (e.phase == 'B' && e.nargs > 0) {
      w.key("args").begin_object();
      for (int i = 0; i < e.nargs; ++i)
        if (e.args[i].name != nullptr) w.kv(e.args[i].name, e.args[i].value);
      w.end_object();
    }
    w.end_object();
    os << '\n';
  }

  for (const CycleRecord& rec : cycle_records()) {
    JsonWriter w(os);
    w.begin_object();
    w.key("conv");
    write_cycle_record(w, rec);
    w.end_object();
    os << '\n';
  }

  {
    std::ostringstream ms;
    write_metrics_json(ms);
    std::string mjson = ms.str();
    // write_metrics_json terminates its document with '\n'; embedded in a
    // JSONL line that newline would split the record in two.
    while (!mjson.empty() && (mjson.back() == '\n' || mjson.back() == '\r'))
      mjson.pop_back();
    os << "{\"metrics\":" << mjson << "}\n";
  }

  const std::uint64_t now = WallTimer::now_ns();
  const double now_us =
      now >= base_ns_ ? double(now - base_ns_) / 1e3 : 0.0;
  ++flushes_;
  os << "{\"flush\":" << flushes_ << ",\"ts\":";
  {
    JsonWriter w(os);
    w.value(now_us);
  }
  os << "}\n";

  if (with_footer) {
    JsonWriter w(os);
    w.begin_object();
    w.kv("end", 1);
    w.kv("ts", now_us);
    w.kv("events", std::uint64_t(num_trace_events()));
    write_clock_into(w, "end_clock", end_clock);
    w.end_object();
    os << '\n';
  }
  return support::durable_write_file(opt_.path, os.str());
}

// --- Offline ingest / merge -------------------------------------------------

bool parse_shard(const std::string& text, TelemetryShard& out,
                 std::string* error) {
  const std::vector<JsonValue> lines = parse_jsonl(text);
  if (lines.empty() || lines.front().find("telemetry_shard") == nullptr) {
    if (error != nullptr) *error = "not a telemetry shard (no header line)";
    return false;
  }
  read_shard_meta(lines.front(), out);

  for (std::size_t i = 1; i < lines.size(); ++i) {
    const JsonValue& l = lines[i];
    if (!l.is_object()) continue;
    if (l.find("ph") != nullptr) {
      PhaseEvent pe;
      if (read_span_event(l, pe)) {
        pe.round = out.round;
        out.events.push_back(std::move(pe));
      }
      continue;
    }
    if (const JsonValue* conv = l.find("conv"); conv != nullptr) {
      out.conv.push_back(read_cycle_record(*conv));
      continue;
    }
    if (const JsonValue* metrics = l.find("metrics"); metrics != nullptr) {
      // Every image carries the whole registry; the last one wins.
      out.metrics = read_metrics(*metrics);
      continue;
    }
    if (l.find("flush") != nullptr) {
      // Each image carries one marker numbered with the cumulative flush
      // count, so the value (not the line count) is the liveness pulse.
      out.flushes = int(l.number_or("flush", double(out.flushes + 1)));
      out.last_flush_us = l.number_or("ts", out.last_flush_us);
      continue;
    }
    if (l.find("end") != nullptr) {
      out.truncated = false;
      out.end_us = l.number_or("ts", 0);
      out.end_clock = parse_clock(l, "end_clock");
      continue;
    }
    // Anything newer: carried for humans, not merged.
  }
  return true;
}

bool read_shard_file(const std::string& path, TelemetryShard& out,
                     std::string* error) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream ss;
  ss << is.rdbuf();
  out.path = path;
  return parse_shard(ss.str(), out, error);
}

TelemetryShard live_shard() {
  const BuildInfo& bi = build_info();
  TelemetryShard s;
  s.pid = std::int64_t(::getpid());
  s.git_sha = bi.git_sha;
  s.build_type = bi.build_type;
  s.truncated = false;
  s.metrics = metrics_snapshot();
  s.events = phase_events_since();
  for (const PhaseEvent& e : s.events) s.end_us = std::max(s.end_us, e.ts_us);
  s.conv = cycle_records();
  return s;
}

MergedTelemetry merge_shards(std::vector<TelemetryShard> shards) {
  MergedTelemetry m;
  if (shards.empty()) return m;
  std::stable_sort(shards.begin(), shards.end(),
                   [](const TelemetryShard& a, const TelemetryShard& b) {
                     if (a.round != b.round) return a.round < b.round;
                     if (a.rank != b.rank) return a.rank < b.rank;
                     return a.path < b.path;
                   });

  const TelemetryShard& first = shards.front();
  m.backend = first.backend;
  m.git_sha = first.git_sha;
  m.build_type = first.build_type;

  // Provenance guard: merged analysis is only meaningful when every shard
  // came from the same build of the same run configuration.
  auto mismatch = [&](const std::string& what, const std::string& a,
                      const std::string& b, const TelemetryShard& s) {
    m.warnings.push_back("provenance mismatch: " + what + " is '" + b +
                         "' in " + s.path + " but '" + a + "' in " +
                         first.path);
  };
  std::set<int> ranks, rounds;
  for (const TelemetryShard& s : shards) {
    ranks.insert(s.rank);
    rounds.insert(s.round);
    if (s.git_sha != first.git_sha)
      mismatch("git SHA", first.git_sha, s.git_sha, s);
    if (s.build_type != first.build_type)
      mismatch("build type", first.build_type, s.build_type, s);
    if (s.fault_spec != first.fault_spec)
      mismatch("fault spec", first.fault_spec, s.fault_spec, s);
    if (s.backend != first.backend)
      mismatch("backend", first.backend, s.backend, s);
    if (s.ranks != first.ranks)
      mismatch("group size", std::to_string(first.ranks),
               std::to_string(s.ranks), s);
    if (!s.clock.synced && s.rank != 0)
      m.warnings.push_back("clock: rank " + std::to_string(s.rank) +
                           " round " + std::to_string(s.round) +
                           " never synced (offset 0 assumed): " + s.path);
  }
  m.ranks = int(ranks.size());
  m.rounds = int(rounds.size());

  // Clock-align within each launch round, then serialize the rounds onto
  // disjoint windows: a failed round's unmatched posts must not slide
  // under the next round's waits in the k-th-to-k-th pairing.
  double next_round_base_us = 0;
  int tid_base = 0;
  for (std::size_t i = 0; i < shards.size();) {
    std::size_t j = i;
    while (j < shards.size() && shards[j].round == shards[i].round) ++j;

    double round_min = 0, round_max = 0;
    bool any = false;
    auto corrected_base_us = [](const TelemetryShard& s) {
      return (double(s.clock_base_ns) + double(s.clock.offset_ns)) / 1e3;
    };
    for (std::size_t k = i; k < j; ++k) {
      const TelemetryShard& s = shards[k];
      const double base = corrected_base_us(s);
      double last = std::max(s.last_flush_us, s.end_us);
      for (const PhaseEvent& e : s.events) last = std::max(last, e.ts_us);
      if (!any || base < round_min) round_min = base;
      if (!any || base + last > round_max) round_max = base + last;
      any = true;
    }
    if (!any) round_min = round_max = 0;
    const double shift = next_round_base_us - round_min;

    for (std::size_t k = i; k < j; ++k) {
      TelemetryShard& s = shards[k];
      s.merged_base_us = corrected_base_us(s) + shift;
      int max_tid = 0;
      for (PhaseEvent& e : s.events) {
        max_tid = std::max(max_tid, e.tid);
        e.ts_us += s.merged_base_us;
        e.tid += tid_base;
        e.round = s.round;
        m.event_member.push_back(s.rank);
        m.events.push_back(std::move(e));
      }
      s.events.clear();
      tid_base += max_tid + 1;
    }
    next_round_base_us = (round_max + shift) + 1e3;  // 1 ms inter-round gap
    i = j;
  }
  std::set<int> tids;
  for (const PhaseEvent& e : m.events) tids.insert(e.tid);
  m.threads = std::max<std::int64_t>(1, std::int64_t(tids.size()));
  for (const TelemetryShard& s : shards)
    m.threads = std::max(m.threads, s.pool_threads());
  m.shards = std::move(shards);
  return m;
}

void write_merged_chrome_trace(std::ostream& os, const MergedTelemetry& m) {
  std::set<int> members;
  for (const int r : m.event_member) members.insert(r);
  for (const TelemetryShard& s : m.shards) members.insert(s.rank);

  JsonWriter w(os);
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("columbia").begin_object();
  w.kv("git_sha", m.git_sha);
  w.kv("build_type", m.build_type);
  w.kv("threads", m.threads);
  w.kv("hardware_threads", std::int64_t(hardware_threads()));
  w.kv("backend", m.backend);
  w.kv("ranks", std::int64_t(m.ranks));
  w.kv("rounds", std::int64_t(m.rounds));
  w.key("warnings").begin_array();
  for (const std::string& s : m.warnings) w.value(s);
  w.end_array();
  w.key("shards").begin_array();
  for (const TelemetryShard& s : m.shards) {
    w.begin_object();
    w.kv("path", s.path);
    w.kv("rank", s.rank);
    w.kv("ranks", s.ranks);
    w.kv("round", s.round);
    w.kv("pid", s.pid);
    w.kv("backend", s.backend);
    w.kv("git_sha", s.git_sha);
    w.kv("build_type", s.build_type);
    w.kv("fault_spec", s.fault_spec);
    w.kv("clock_base_ns", std::to_string(s.clock_base_ns));
    w.kv("truncated", s.truncated);
    w.kv("flushes", s.flushes);
    w.kv("start_us", s.merged_base_us);
    w.kv("last_flush_us", s.merged_base_us + s.last_flush_us);
    if (!s.truncated) w.kv("end_us", s.merged_base_us + s.end_us);
    write_clock_into(w, "clock", s.clock);
    if (!s.truncated) write_clock_into(w, "end_clock", s.end_clock);
    w.key("metrics");
    write_metrics_into(w, s.metrics);
    w.key("conv").begin_array();
    for (const CycleRecord& rec : s.conv) write_cycle_record(w, rec);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("traceEvents").begin_array();
  for (const int r : members) {
    w.begin_object();
    w.kv("name", "process_name");
    w.kv("ph", "M");
    w.kv("pid", std::int64_t(r));
    w.kv("tid", std::int64_t(0));
    w.key("args").begin_object();
    w.kv("name", "rank " + std::to_string(r) +
                     (m.backend.empty() ? "" : " (" + m.backend + ")"));
    w.end_object();
    w.end_object();
  }
  for (std::size_t i = 0; i < m.events.size(); ++i) {
    const PhaseEvent& e = m.events[i];
    w.begin_object();
    w.kv("name", e.name);
    w.kv("ph", std::string(1, e.phase));
    w.kv("ts", e.ts_us);
    w.kv("pid",
         std::int64_t(i < m.event_member.size() ? m.event_member[i] : 0));
    w.kv("tid", std::int64_t(e.tid));
    if (e.phase == 'B') {
      w.key("args").begin_object();
      if (e.level >= 0) w.kv("level", e.level);
      if (e.rank >= 0) w.kv("rank", e.rank);
      if (e.nbr >= 0) w.kv("nbr", e.nbr);
      if (e.strat >= 0) w.kv("strat", e.strat);
      if (e.bytes >= 0) w.kv("bytes", e.bytes);
      w.kv("round", e.round);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

bool parse_merged_trace(const JsonValue& doc, MergedTelemetry& out,
                        std::string* error) {
  const JsonValue* evs = doc.find("traceEvents");
  if (evs == nullptr || !evs->is_array()) {
    if (error != nullptr) *error = "no traceEvents array";
    return false;
  }
  out = MergedTelemetry{};
  // The writer stamps a round only on 'B' events; each merged tid belongs
  // to one shard, hence one round, so 'E' events take their tid's.
  std::map<int, std::int64_t> tid_round;
  int max_tid = 0;
  for (const JsonValue& e : evs->items()) {
    PhaseEvent pe;
    if (!e.is_object() || !read_span_event(e, pe)) continue;
    if (pe.phase == 'B') tid_round.emplace(pe.tid, pe.round);
    max_tid = std::max(max_tid, pe.tid);
    out.event_member.push_back(int(e.number_or("pid", 0)));
    out.events.push_back(std::move(pe));
  }
  for (PhaseEvent& pe : out.events)
    if (pe.phase == 'E') {
      const auto it = tid_round.find(pe.tid);
      if (it != tid_round.end()) pe.round = it->second;
    }

  const JsonValue* meta = doc.find("columbia");
  if (meta != nullptr && meta->is_object()) {
    out.git_sha = meta->string_or("git_sha", "");
    out.build_type = meta->string_or("build_type", "");
    out.backend = meta->string_or("backend", "");
    out.threads = std::int64_t(meta->number_or("threads", 0));
    out.ranks = int(meta->number_or("ranks", 0));
    out.rounds = int(meta->number_or("rounds", 0));
    if (const JsonValue* ws = meta->find("warnings");
        ws != nullptr && ws->is_array())
      for (const JsonValue& wv : ws->items())
        if (wv.is_string()) out.warnings.push_back(wv.str());
    if (const JsonValue* sh = meta->find("shards");
        sh != nullptr && sh->is_array()) {
      for (const JsonValue& sv : sh->items()) {
        if (!sv.is_object()) continue;
        TelemetryShard s;
        read_shard_meta(sv, s);
        s.path = sv.string_or("path", "");
        const JsonValue* tr = sv.find("truncated");
        s.truncated = tr != nullptr && tr->is_bool() && tr->boolean();
        s.flushes = int(sv.number_or("flushes", 0));
        s.merged_base_us = sv.number_or("start_us", 0);
        s.last_flush_us = sv.number_or("last_flush_us", 0) - s.merged_base_us;
        if (!s.truncated)
          s.end_us = sv.number_or("end_us", 0) - s.merged_base_us;
        s.end_clock = parse_clock(sv, "end_clock");
        if (const JsonValue* mv = sv.find("metrics"); mv != nullptr)
          s.metrics = read_metrics(*mv);
        if (const JsonValue* conv = sv.find("conv");
            conv != nullptr && conv->is_array())
          for (const JsonValue& rv : conv->items())
            s.conv.push_back(read_cycle_record(rv));
        out.shards.push_back(std::move(s));
      }
    }
  }
  // Traces without a thread count: one per recorded tid.
  if (out.threads <= 0) out.threads = max_tid + 1;
  return true;
}

bool write_trace(const std::string& path, std::vector<TelemetryShard> shards) {
  const MergedTelemetry m = merge_shards(std::move(shards));
  for (const std::string& w : m.warnings)
    std::fprintf(stderr, "trace: warning: %s\n", w.c_str());
  std::ostringstream os;
  write_merged_chrome_trace(os, m);
  if (!support::durable_write_file(path, os.str())) {
    std::fprintf(stderr, "trace: cannot write %s\n", path.c_str());
    return false;
  }
  if (m.shards.size() == 1)
    std::printf("trace: %zu events -> %s\n", m.events.size(), path.c_str());
  else
    std::printf("trace: %zu events from %zu shards (%d ranks, %d rounds) "
                "-> %s\n",
                m.events.size(), m.shards.size(), m.ranks, m.rounds,
                path.c_str());
  return true;
}

std::string shard_file_path(const std::string& base, int rank, int round) {
  return base + ".rank" + std::to_string(rank) + ".round" +
         std::to_string(round) + ".jsonl";
}

}  // namespace columbia::obs
