#include "layers.hpp"

#include <sys/resource.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <thread>

#include "obs/json.hpp"
#include "support/build_info.hpp"

namespace columbia::cbench {

bool SpanLog::write_chrome_trace(const std::string& path, int pid) const {
  std::ofstream f(path);
  if (!f) return false;
  obs::JsonWriter w(f);
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (const Span& s : spans_) {
    w.begin_object();
    w.kv("name", s.name);
    w.kv("ph", "X");
    w.kv("ts", s.t0 * 1e6);
    w.kv("dur", (s.t1 - s.t0) * 1e6);
    w.kv("pid", pid);
    w.kv("tid", 0);
    w.key("args");
    w.begin_object();
    if (s.level >= 0) w.kv("level", s.level);
    if (s.cycle >= 0) w.kv("cycle", s.cycle);
    if (s.solve >= 0) w.kv("solve", s.solve);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.kv("displayTimeUnit", "ms");
  w.key("columbia");
  w.begin_object();
  w.kv("git_sha", build_info().git_sha);
  w.kv("build_type", build_info().build_type);
  w.kv("source", "columbia_bench bench-side spans");
  w.end_object();
  w.end_object();
  f << "\n";
  return bool(f);
}

double MgTotals::attributed() const {
  double s = driver + ret;
  for (int l = 0; l < kMaxLevels; ++l)
    s += presmooth[l] + restrict_[l] + post[l] + finish[l];
  return s;
}

void MgTotals::accumulate(const MgTotals& o) {
  for (int l = 0; l < kMaxLevels; ++l) {
    presmooth[l] += o.presmooth[l];
    restrict_[l] += o.restrict_[l];
    post[l] += o.post[l];
    finish[l] += o.finish[l];
    visits[l] += o.visits[l];
  }
  driver += o.driver;
  ret += o.ret;
  cycles_wall += o.cycles_wall;
  cycles += o.cycles;
  levels = o.levels;
}

void MgTimeline::cycle_begin() {
  cycle_t0_ = now_s();
  prev_ = Ev::CycleBegin;
  prev_level_ = -1;
  prev_t_ = cycle_t0_;
}

void MgTimeline::close_interval(Ev next, int next_level, double t) {
  const double dt = t - prev_t_;
  const char* name = "mg.return";
  int level = -1;
  if (prev_ == Ev::CycleBegin) {
    tot_.driver += dt;
    name = "mg.driver";
  } else if (prev_ == Ev::Begin) {
    tot_.presmooth[prev_level_] += dt;
    name = "mg.presmooth";
    level = prev_level_;
  } else if (next == Ev::Begin && next_level == prev_level_ + 1) {
    tot_.restrict_[prev_level_] += dt;
    name = "mg.restrict";
    level = prev_level_;
  } else {
    tot_.ret += dt;
  }
  if (log_) log_->add(name, prev_t_, t, level, cycle_, solve_);
}

void MgTimeline::hook_begin(int level, double t_hook0, double t_hook1) {
  if (level < 0 || level >= kMaxLevels) return;
  close_interval(Ev::Begin, level, t_hook0);
  tot_.visits[level] += 1;
  tot_.post[level] += t_hook1 - t_hook0;
  if (log_ && t_hook1 > t_hook0)
    log_->add("xchg.post", t_hook0, t_hook1, level, cycle_, solve_);
  prev_ = Ev::Begin;
  prev_level_ = level;
  prev_t_ = t_hook1;
}

void MgTimeline::hook_end(int level, double t_hook0, double t_hook1) {
  if (level < 0 || level >= kMaxLevels) return;
  close_interval(Ev::End, level, t_hook0);
  tot_.finish[level] += t_hook1 - t_hook0;
  if (log_ && t_hook1 > t_hook0)
    log_->add("xchg.finish", t_hook0, t_hook1, level, cycle_, solve_);
  prev_ = Ev::End;
  prev_level_ = level;
  prev_t_ = t_hook1;
}

void MgTimeline::cycle_end() {
  const double t = now_s();
  close_interval(Ev::CycleBegin, -1, t);
  tot_.cycles_wall += t - cycle_t0_;
  tot_.cycles += 1;
  if (log_) log_->add("mg.cycle", cycle_t0_, t, -1, cycle_, solve_);
  ++cycle_;
}

double llc_mb() {
  double best = 0;
  int best_level = 0;
  for (int i = 0; i < 16; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    std::ifstream lf(dir + "level"), sf(dir + "size"), tf(dir + "type");
    if (!lf || !sf) break;
    int level = 0;
    std::string size, type;
    lf >> level;
    sf >> size;
    tf >> type;
    if (type == "Instruction" || size.empty()) continue;
    double kb = std::atof(size.c_str());
    if (size.back() == 'M') kb *= 1024;
    if (size.back() == 'G') kb *= 1024 * 1024;
    if (level > best_level || (level == best_level && kb > best * 1024)) {
      best_level = level;
      best = kb / 1024;
    }
  }
  return best;
}

double triad_gbs(std::size_t bytes_each, int threads) {
  const std::size_t n = std::max<std::size_t>(bytes_each / sizeof(double), 1);
  const std::unique_ptr<double[]> a(new double[n]), b(new double[n]),
      c(new double[n]);
  const int nt = std::max(threads, 1);
  auto parallel = [&](auto&& body) {
    std::vector<std::thread> ts;
    for (int t = 0; t < nt; ++t)
      ts.emplace_back([&, t] {
        body(n * std::size_t(t) / std::size_t(nt),
             n * std::size_t(t + 1) / std::size_t(nt));
      });
    for (auto& th : ts) th.join();
  };
  // First touch on the threads that stream the arrays.
  parallel([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0;
      b[i] = 1;
      c[i] = 2;
    }
  });
  double best = 1e300;
  for (int pass = 0; pass < 4; ++pass) {
    WallTimer t;
    parallel([&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + 3.0 * c[i];
    });
    best = std::min(best, t.seconds());
  }
  // a[] must be read back or the passes are dead stores.
  if (a[n / 2] != 7.0) return 0;
  return 24.0 * double(n) / best * 1e-9;
}

double peak_rss_mb(int children) {
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return double(self.ru_maxrss + children * kids.ru_maxrss) / 1024.0;
}

}  // namespace columbia::cbench
