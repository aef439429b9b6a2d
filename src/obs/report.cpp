#include "obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "obs/metrics.hpp"

namespace columbia::obs {

bool is_comm_phase(const std::string& name) {
  return name.rfind("halo.", 0) == 0;
}

namespace {

struct Key {
  std::string phase;
  std::int64_t level;
  bool operator<(const Key& o) const {
    if (phase != o.phase) return phase < o.phase;
    return level < o.level;
  }
};

struct Accum {
  std::vector<double> instances_s;     // exclusive seconds per span instance
  std::map<int, double> thread_s;      // exclusive seconds per tid
};

double imbalance_of(const std::map<int, double>& thread_s) {
  if (thread_s.size() < 2) return 1.0;
  double sum = 0, mx = 0;
  for (const auto& [tid, s] : thread_s) {
    sum += s;
    mx = std::max(mx, s);
  }
  const double mean = sum / double(thread_s.size());
  return mean > 0 ? mx / mean : 1.0;
}

double p95_of(std::vector<double>& v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t idx =
      std::size_t(std::ceil(0.95 * double(v.size()))) - 1;
  return v[std::min(idx, v.size() - 1)];
}

}  // namespace

PhaseProfile build_profile(const std::vector<PhaseEvent>& events) {
  PhaseProfile out;

  // Regroup per thread, preserving each thread's recording order (both
  // producers append per-thread in order even when tids interleave).
  std::map<int, std::vector<const PhaseEvent*>> per_tid;
  for (const PhaseEvent& e : events) per_tid[e.tid].push_back(&e);

  struct Frame {
    const std::string* name;
    std::int64_t level;
    double start_us;
    double child_us = 0;  // inclusive time of completed children
  };

  std::map<Key, Accum> accum;
  std::map<int, double> comm_thread_s;
  std::map<std::int64_t, Accum> level_accum;
  std::map<std::int64_t, double> level_comm_s;

  for (const auto& [tid, evs] : per_tid) {
    if (evs.empty()) continue;
    out.wall_s =
        std::max(out.wall_s, (evs.back()->ts_us - evs.front()->ts_us) / 1e6);
    std::vector<Frame> stack;
    for (const PhaseEvent* e : evs) {
      if (e->phase == 'B') {
        stack.push_back({&e->name, e->level, e->ts_us});
        continue;
      }
      if (e->phase != 'E') continue;
      // Unmatched ends (window cut mid-span, or a begin recorded before
      // the window opened) are dropped rather than guessed at.
      if (stack.empty() || *stack.back().name != e->name) continue;
      const Frame f = stack.back();
      stack.pop_back();
      const double incl_us = e->ts_us - f.start_us;
      const double excl_s =
          std::max(0.0, (incl_us - f.child_us)) / 1e6;
      if (!stack.empty()) stack.back().child_us += incl_us;
      Accum& a = accum[{*f.name, f.level}];
      a.instances_s.push_back(excl_s);
      a.thread_s[tid] += excl_s;
      out.busy_s += excl_s;
      if (is_comm_phase(*f.name)) {
        out.comm_s += excl_s;
        comm_thread_s[tid] += excl_s;
      }
      if (f.level >= 0) {
        Accum& la = level_accum[f.level];
        la.instances_s.push_back(excl_s);
        la.thread_s[tid] += excl_s;
        if (is_comm_phase(*f.name)) level_comm_s[f.level] += excl_s;
      }
    }
  }

  for (auto& [key, a] : accum) {
    PhaseStats s;
    s.phase = key.phase;
    s.level = key.level;
    s.calls = a.instances_s.size();
    s.threads = int(a.thread_s.size());
    double mn = a.instances_s.empty() ? 0 : a.instances_s.front(), mx = 0;
    for (double x : a.instances_s) {
      s.total_s += x;
      mn = std::min(mn, x);
      mx = std::max(mx, x);
    }
    s.min_s = mn;
    s.max_s = mx;
    s.mean_s = s.calls > 0 ? s.total_s / double(s.calls) : 0;
    s.p95_s = p95_of(a.instances_s);
    s.imbalance = imbalance_of(a.thread_s);
    out.phases.push_back(std::move(s));
  }
  std::sort(out.phases.begin(), out.phases.end(),
            [](const PhaseStats& a, const PhaseStats& b) {
              if (a.total_s != b.total_s) return a.total_s > b.total_s;
              if (a.phase != b.phase) return a.phase < b.phase;
              return a.level < b.level;
            });

  for (auto& [level, a] : level_accum) {
    LevelStats ls;
    ls.level = level;
    ls.calls = a.instances_s.size();
    for (double x : a.instances_s) ls.total_s += x;
    ls.imbalance = imbalance_of(a.thread_s);
    const auto it = level_comm_s.find(level);
    ls.comm_s = it != level_comm_s.end() ? it->second : 0;
    out.levels.push_back(ls);
  }

  for (const auto& [tid, s] : comm_thread_s) out.comm_per_thread.push_back(s);
  out.comm_fraction = out.busy_s > 0 ? out.comm_s / out.busy_s : 0;
  return out;
}

void add_comm_counters(const MetricsSnapshot& s, PhaseProfile& p) {
  const auto count = [&s](const char* name) -> std::uint64_t {
    const auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
  };
  p.comm_exchanges += count("halo.plan.exchanges");
  p.comm_messages += count("halo.plan.messages");
  p.comm_bytes += count("halo.plan.bytes");
  p.comm_retransmits += count("resil.halo.retransmits");
}

std::vector<PhaseEvent> phase_events_since() {
  const std::vector<TraceEvent> snap = trace_snapshot();
  std::uint64_t epoch = ~std::uint64_t(0);
  for (const TraceEvent& e : snap) epoch = std::min(epoch, e.ts_ns);
  std::vector<PhaseEvent> events;
  events.reserve(snap.size());
  for (const TraceEvent& e : snap) {
    if (e.name == nullptr) continue;
    PhaseEvent pe;
    pe.name = e.name;
    pe.phase = e.phase;
    pe.ts_us = double(e.ts_ns - epoch) / 1e3;
    pe.tid = int(e.tid);
    if (e.phase == 'B') {
      pe.level = e.arg_or("level", -1);
      pe.rank = e.arg_or("rank", -1);
      pe.nbr = e.arg_or("nbr", -1);
      pe.strat = e.arg_or("strat", -1);
      pe.bytes = e.arg_or("bytes", -1);
    }
    events.push_back(std::move(pe));
  }
  return events;
}

Table profile_table(const PhaseProfile& p) {
  Table t({"phase", "level", "calls", "threads", "total s", "min ms",
           "mean ms", "p95 ms", "max ms", "imbalance"});
  for (const PhaseStats& s : p.phases) {
    t.add_row({s.phase, s.level >= 0 ? std::to_string(s.level) : "-",
               std::to_string(s.calls), std::to_string(s.threads),
               Table::num(s.total_s, 4), Table::num(s.min_s * 1e3, 3),
               Table::num(s.mean_s * 1e3, 3), Table::num(s.p95_s * 1e3, 3),
               Table::num(s.max_s * 1e3, 3), Table::num(s.imbalance, 2)});
  }
  return t;
}

Table level_table(const PhaseProfile& p) {
  // "comm s" rides at the end so older fixtures' pinned row prefixes keep
  // matching; it is nonzero only when halo spans carried a level arg.
  Table t({"level", "calls", "excl s", "share", "imbalance", "comm s"});
  double sum = 0;
  for (const LevelStats& l : p.levels) sum += l.total_s;
  for (const LevelStats& l : p.levels) {
    t.add_row({std::to_string(l.level), std::to_string(l.calls),
               Table::num(l.total_s, 4),
               Table::num(sum > 0 ? l.total_s / sum : 0, 3),
               Table::num(l.imbalance, 2), Table::num(l.comm_s, 4)});
  }
  return t;
}

Table summary_table(const PhaseProfile& p) {
  Table t({"metric", "value"});
  t.add_row({"wall s", Table::num(p.wall_s, 4)});
  t.add_row({"busy s (sum of exclusive)", Table::num(p.busy_s, 4)});
  t.add_row({"comm s", Table::num(p.comm_s, 4)});
  t.add_row({"comm fraction", Table::num(p.comm_fraction, 3)});
  double crit = 0;
  for (double s : p.comm_per_thread) crit = std::max(crit, s);
  t.add_row({"halo critical path s (busiest thread)", Table::num(crit, 4)});
  t.add_row({"halo exchanges", std::to_string(p.comm_exchanges)});
  t.add_row({"halo messages", std::to_string(p.comm_messages)});
  t.add_row({"halo MB", Table::num(double(p.comm_bytes) / 1e6, 3)});
  t.add_row({"halo retransmits", std::to_string(p.comm_retransmits)});
  return t;
}

}  // namespace columbia::obs
