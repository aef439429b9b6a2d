#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "bench.hpp"
#include "obs/json.hpp"
#include "support/build_info.hpp"

namespace columbia::cbench {

namespace fs = std::filesystem;

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<double> quartiles(std::vector<double> v) {
  if (v.empty()) return {std::nan(""), std::nan(""), std::nan("")};
  if (v.size() == 1) return {v[0], v[0], v[0]};
  std::sort(v.begin(), v.end());
  const long ld = long(v.size()), m = ld + 1, n = 4;
  std::vector<double> q;
  for (long i = 1; i < n; ++i) {
    long j = i * m / n;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * n;
    q.push_back((v[std::size_t(j - 1)] * double(n - delta) +
                 v[std::size_t(j)] * double(delta)) /
                double(n));
  }
  return q;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double x = p / 100.0 * double(v.size() - 1);
  const std::size_t lo = std::size_t(std::floor(x));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (x - double(lo)) * (v[hi] - v[lo]);
}

std::vector<Metric> end_to_end_metrics(const Result& r) {
  const double spc =
      r.cycle_s.empty() ? median(r.s_per_cycle) : median(r.cycle_s);
  return {{"tts_s", median(r.tts_s), "s"},
          {"s_per_cycle", spc, "s"},
          {"cycles", median(r.cycles), "count"},
          {"setup_s", median(r.setup_s), "s"},
          {"peak_rss_mb", r.peak_rss_mb, "MB"}};
}

bool read_json_file(const std::string& path, obs::JsonValue& out,
                    std::string* error) {
  std::ifstream f(path);
  if (!f) {
    if (error) *error = "cannot read " + path;
    return false;
  }
  std::stringstream ss;
  ss << f.rdbuf();
  return obs::parse_json(ss.str(), out, error);
}

namespace {

void write_value(obs::JsonWriter& w, const obs::JsonValue& v) {
  switch (v.kind()) {
    case obs::JsonValue::Kind::Null: w.value(std::nan("")); break;
    case obs::JsonValue::Kind::Bool: w.value(v.boolean()); break;
    case obs::JsonValue::Kind::Number: w.value(v.number()); break;
    case obs::JsonValue::Kind::String: w.value(v.str()); break;
    case obs::JsonValue::Kind::Array:
      w.begin_array();
      for (const auto& i : v.items()) write_value(w, i);
      w.end_array();
      break;
    case obs::JsonValue::Kind::Object:
      w.begin_object();
      for (const auto& [k, m] : v.members()) {
        w.key(k);
        write_value(w, m);
      }
      w.end_object();
      break;
  }
}

void write_metrics(obs::JsonWriter& w, const std::vector<Metric>& ms) {
  w.begin_object();
  for (const Metric& m : ms) {
    w.key(m.name);
    w.begin_object();
    w.kv("value", m.value);
    w.kv("unit", m.unit);
    w.end_object();
  }
  w.end_object();
}

/// Spread and tail of the end-to-end samples, for people reading the
/// result file (the driver line carries medians only).
std::vector<Metric> e2e_details(const Result& r) {
  std::vector<Metric> d{{"tts_s.max", percentile(r.tts_s, 100), "s"},
                        {"tts_s.n", double(r.tts_s.size()), "count"},
                        {"orders_dropped", median(r.orders), "orders"},
                        {"setup_s.n", double(r.setup_s.size()), "count"}};
  if (!r.cycle_s.empty()) {
    d.push_back({"s_per_cycle.p90", percentile(r.cycle_s, 90), "s"});
    d.push_back({"s_per_cycle.n", double(r.cycle_s.size()), "count"});
  } else {
    d.push_back({"s_per_cycle.n", double(r.s_per_cycle.size()), "count"});
  }
  const double frac =
      r.attempted > 0 ? double(r.failed) / double(r.attempted) : 1.0;
  d.push_back({"failed_frac", frac, "frac"});
  return d;
}

bool ensure_dir(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  return fs::is_directory(dir);
}

}  // namespace

bool check_references(Result& r, const std::string& refs_path) {
  obs::JsonValue refs;
  std::string err;
  if (!read_json_file(refs_path, refs, &err)) {
    r.errors.push_back("references: " + err);
    return false;
  }
  const obs::JsonValue* mine = refs.find(r.workload);
  if (!mine || !mine->is_object()) {
    r.errors.push_back("references: no entry for " + r.workload);
    return false;
  }
  bool ok = true;
  for (const Output& o : r.outputs) {
    const obs::JsonValue* ref = mine->find(o.name);
    bool match = false;
    if (ref && ref->is_number()) {
      const double want = ref->number();
      match = o.exact ? o.value == want
                      : std::fabs(o.value - want) <=
                            1e-9 * std::max(std::fabs(want), 1e-300);
    }
    if (!match) {
      ok = false;
      char buf[200];
      std::snprintf(buf, sizeof(buf), "reference mismatch %s: got %.12g want %.12g",
                    o.name.c_str(), o.value,
                    ref && ref->is_number() ? ref->number() : std::nan(""));
      if (r.errors.size() < 16) r.errors.push_back(buf);
    }
  }
  return ok;
}

bool record_references(const Result& r, const std::string& refs_path) {
  obs::JsonValue old;
  const bool have_old = read_json_file(refs_path, old, nullptr);
  std::ofstream f(refs_path);
  if (!f) return false;
  obs::JsonWriter w(f);
  w.begin_object();
  if (have_old && old.is_object())
    for (const auto& [k, v] : old.members()) {
      if (k == r.workload) continue;
      w.key(k);
      write_value(w, v);
    }
  w.key(r.workload);
  w.begin_object();
  for (const Output& o : r.outputs) w.kv(o.name, o.value);
  w.end_object();
  w.end_object();
  f << "\n";
  return bool(f);
}

std::string write_result_files(const Config& cfg, const Result& r,
                               const std::vector<Metric>& metrics,
                               const Host& host) {
  if (!ensure_dir(cfg.out_dir)) return {};
  std::string path;
  for (int n = 0;; ++n) {
    path = cfg.out_dir + "/" + r.workload + "-s" + std::to_string(cfg.seed) +
           (cfg.trace ? "-trace" : "") + "-" + std::to_string(n) + ".json";
    if (!fs::exists(path)) break;
  }
  std::ofstream f(path);
  if (!f) return {};
  obs::JsonWriter w(f);
  w.begin_object();
  w.kv("bench", "columbia_bench");
  w.kv("workload", r.workload);
  w.kv("seed", std::uint64_t(cfg.seed));
  w.kv("seconds", cfg.seconds);
  w.kv("trace", cfg.trace);
  w.kv("smoke", cfg.smoke);
  w.key("provenance");
  w.begin_object();
  w.kv("git_sha", build_info().git_sha);
  w.kv("build_type", build_info().build_type);
  w.kv("columbia_threads", r.threads);
  w.kv("nproc", std::int64_t(hardware_threads()));
  w.kv("llc_mb", host.llc_mb);
  w.kv("host.triad_gbs", host.triad_gbs);
  w.kv("triad_array_mb", host.triad_array_mb);
  w.kv("triad_note", "STREAM triad a = b + s*c, 24 B per element");
  w.end_object();
  const bool correct = r.failed == 0 && r.errors.empty() && r.attempted > 0;
  w.kv("correct", correct);
  w.kv("attempted", r.attempted);
  w.kv("failed", r.failed);
  w.key("errors");
  w.begin_array();
  for (const std::string& e : r.errors) w.value(e);
  w.end_array();
  w.key("metrics");
  write_metrics(w, metrics);
  w.key("details");
  write_metrics(w, e2e_details(r));
  w.key("samples");
  w.begin_object();
  for (const auto& [name, v] :
       {std::pair{"tts_s", &r.tts_s}, {"setup_s", &r.setup_s},
        {"cycles", &r.cycles}, {"orders_dropped", &r.orders},
        {"s_per_cycle", &r.s_per_cycle}}) {
    if (v->empty()) continue;
    w.key(name);
    w.begin_array();
    for (const double x : *v) w.value(x);
    w.end_array();
  }
  w.end_object();
  w.key("outputs");
  w.begin_object();
  for (const Output& o : r.outputs) w.kv(o.name, o.value);
  w.end_object();
  w.end_object();
  f << "\n";
  if (!f) return {};

  if (cfg.trace) {
    const std::string dir = cfg.out_dir + "/trace";
    if (!ensure_dir(dir)) return {};
    std::ofstream lf(dir + "/" + r.workload + ".layers.json");
    obs::JsonWriter lw(lf);
    lw.begin_object();
    lw.kv("workload", r.workload);
    lw.kv("seed", std::uint64_t(cfg.seed));
    lw.kv("note",
          "bench-side timings around public calls; *_gbs_computed rows are "
          "computed from array sizes (each array once, no cache misses)");
    lw.key("layers");
    write_metrics(lw, r.layers);
    lw.end_object();
    lf << "\n";
    if (!lf) return {};
  }
  return path;
}

std::string result_line(bool correct, int attempted, int failed,
                        const std::vector<Metric>& metrics) {
  std::string s = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) +
                  ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (std::isfinite(m.value))
      std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    else
      std::snprintf(buf, sizeof(buf), "null");
    s += (i ? ", \"" : "\"") + obs::JsonWriter::escape(m.name) +
         "\": {\"value\": " + buf + ", \"unit\": \"" +
         obs::JsonWriter::escape(m.unit) + "\"}";
  }
  return s + "}}";
}

namespace {

struct Bound {
  std::string name, unit;
  bool lower_is_better = true;
  double bound = 0;
};

bool load_bounds(const std::string& path, std::vector<Bound>& out,
                 obs::JsonValue& doc) {
  std::string err;
  if (!read_json_file(path, doc, &err)) {
    std::fprintf(stderr, "compare: %s\n", err.c_str());
    return false;
  }
  const obs::JsonValue* e2e = doc.find("end_to_end");
  if (!e2e || !e2e->is_array()) {
    std::fprintf(stderr, "compare: %s has no end_to_end list\n", path.c_str());
    return false;
  }
  for (const obs::JsonValue& m : e2e->items())
    out.push_back({m.string_or("name", ""), m.string_or("unit", ""),
                   m.string_or("better", "lower") == "lower",
                   m.number_or("bound", 0)});
  return true;
}

/// Untraced result samples of one directory: workload -> metric -> values.
struct Side {
  std::map<std::string, std::map<std::string, std::vector<double>>> values;
  std::map<std::string, std::pair<double, double>> failed;  // failed, attempted
};

Side load_side(const std::string& dir) {
  Side s;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (e.path().extension() != ".json") continue;
    obs::JsonValue doc;
    if (!read_json_file(e.path().string(), doc, nullptr)) continue;
    if (doc.string_or("bench", "") != "columbia_bench") continue;
    const obs::JsonValue* tr = doc.find("trace");
    if (tr && tr->is_bool() && tr->boolean()) continue;
    const std::string w = doc.string_or("workload", "");
    const obs::JsonValue* ms = doc.find("metrics");
    if (w.empty() || !ms || !ms->is_object()) continue;
    for (const auto& [name, m] : ms->members())
      if (const obs::JsonValue* v = m.find("value"); v && v->is_number())
        s.values[w][name].push_back(v->number());
    auto& f = s.failed[w];
    f.first += doc.number_or("failed", 0);
    f.second += doc.number_or("attempted", 0);
  }
  return s;
}

}  // namespace

int compare_dirs(const std::string& a, const std::string& b,
                 const std::string& benchmark_path) {
  std::vector<Bound> bounds;
  obs::JsonValue doc;
  if (!load_bounds(benchmark_path, bounds, doc)) return 2;
  const Side sa = load_side(a), sb = load_side(b);
  int worse = 0, missing = 0;
  std::printf("%-14s %-15s %28s %28s %8s  %s\n", "workload", "metric",
              "A median [q1, q3] (n)", "B median [q1, q3] (n)", "change",
              "verdict");
  for (const std::string& w : workload_names()) {
    for (const Bound& bd : bounds) {
      const auto fa = sa.values.find(w), fb = sb.values.find(w);
      const std::vector<double>* va = nullptr;
      const std::vector<double>* vb = nullptr;
      if (fa != sa.values.end() && fa->second.count(bd.name))
        va = &fa->second.at(bd.name);
      if (fb != sb.values.end() && fb->second.count(bd.name))
        vb = &fb->second.at(bd.name);
      if (!va || !vb) {
        std::printf("%-14s %-15s %28s %28s %8s  missing\n", w.c_str(),
                    bd.name.c_str(), va ? "" : "-", vb ? "" : "-", "");
        ++missing;
        continue;
      }
      const double ma = median(*va), mb = median(*vb);
      const std::vector<double> qa = quartiles(*va), qb = quartiles(*vb);
      const double sign = bd.lower_is_better ? 1.0 : -1.0;
      const double change = sign * (mb - ma) / std::fabs(ma);
      const double spread = std::max((qa[2] - qa[0]) / std::fabs(ma),
                                     (qb[2] - qb[0]) / std::fabs(mb));
      const auto [amin, amax] = std::minmax_element(va->begin(), va->end());
      const auto [bmin, bmax] = std::minmax_element(vb->begin(), vb->end());
      const bool all_better =
          bd.lower_is_better ? *bmax < *amin : *bmin > *amax;
      const char* verdict = "within";
      if (spread > bd.bound)
        verdict = all_better ? "better" : "unresolved";
      else if (change > bd.bound)
        verdict = "worse";
      else if (change < -bd.bound)
        verdict = "better";
      worse += std::string(verdict) == "worse";
      char ca[64], cb[64];
      std::snprintf(ca, sizeof(ca), "%.4g [%.4g, %.4g] (%zu)", ma, qa[0],
                    qa[2], va->size());
      std::snprintf(cb, sizeof(cb), "%.4g [%.4g, %.4g] (%zu)", mb, qb[0],
                    qb[2], vb->size());
      std::printf("%-14s %-15s %28s %28s %+7.2f%%  %s\n", w.c_str(),
                  bd.name.c_str(), ca, cb, 100 * change, verdict);
    }
    const auto fa = sa.failed.find(w), fb = sb.failed.find(w);
    if (fa != sa.failed.end() && fb != sb.failed.end()) {
      const double ra = fa->second.first / std::max(fa->second.second, 1.0);
      const double rb = fb->second.first / std::max(fb->second.second, 1.0);
      const bool bad = rb > ra;
      worse += bad;
      std::printf("%-14s %-15s %28.4g %28.4g %8s  %s\n", w.c_str(),
                  "failed_frac", ra, rb, "", bad ? "worse" : "within");
    }
  }
  if (missing)
    std::printf("compare: %d metric rows missing on one side\n", missing);
  return worse ? 1 : missing ? 2 : 0;
}

void validate_result_line(const obs::JsonValue& line, bool traced,
                          const obs::JsonValue& benchmark,
                          std::vector<std::string>& errors) {
  const obs::JsonValue* correct = line.find("correct");
  if (!correct || !correct->is_bool())
    errors.push_back("result line: no boolean 'correct'");
  if (line.number_or("attempted", 0) < 1)
    errors.push_back("result line: 'attempted' < 1");
  if (!line.find("failed") || !line.find("failed")->is_number())
    errors.push_back("result line: no number 'failed'");
  const obs::JsonValue* metrics = line.find("metrics");
  const obs::JsonValue* want =
      benchmark.find(traced ? "per_layer" : "end_to_end");
  if (!metrics || !metrics->is_object() || !want || !want->is_array()) {
    errors.push_back("result line: no metrics object");
    return;
  }
  for (const obs::JsonValue& m : want->items()) {
    const std::string name = m.string_or("name", "");
    const obs::JsonValue* got = metrics->find(name);
    if (!got) {
      errors.push_back("missing metric " + name);
      continue;
    }
    const obs::JsonValue* v = got->find("value");
    if (!v || !v->is_number())
      errors.push_back("metric " + name + " has no numeric value");
    if (got->string_or("unit", "") != m.string_or("unit", "?"))
      errors.push_back("metric " + name + " has unit '" +
                       got->string_or("unit", "") + "', want '" +
                       m.string_or("unit", "") + "'");
  }
  if (metrics->members().size() != want->items().size())
    errors.push_back("result line: " +
                     std::to_string(metrics->members().size()) +
                     " metrics, BENCHMARK.json lists " +
                     std::to_string(want->items().size()));
}

}  // namespace columbia::cbench
