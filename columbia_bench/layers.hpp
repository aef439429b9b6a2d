// Bench-side measurement of the layers under a solve: spans recorded in
// memory around calls into each layer's public functions (written as a
// Chrome trace when the run ends), the multigrid timeline folded from the
// solvers' level hooks, and the kernel / host probes of the traced run.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "support/timer.hpp"

namespace columbia::cbench {

inline double now_s() { return double(WallTimer::now_ns()) * 1e-9; }

/// In-memory span log. Names must be string literals (stored by pointer).
class SpanLog {
 public:
  struct Span {
    const char* name;
    int level;  // multigrid level, -1 when not level-scoped
    int cycle;  // cycle within the solve, -1 outside cycles
    int solve;  // repeat index, -1 outside repeats
    double t0, t1;
  };

  void add(const char* name, double t0, double t1, int level = -1,
           int cycle = -1, int solve = -1) {
    spans_.push_back({name, level, cycle, solve, t0, t1});
  }

  /// Chrome trace_event JSON ("X" events, microseconds, `tid` per log).
  bool write_chrome_trace(const std::string& path, int pid) const;

 private:
  std::vector<Span> spans_;
};

inline constexpr int kMaxLevels = 8;

/// Per-cycle multigrid intervals, summed over the cycles of one or more
/// solves. Plain data so a forked rank can copy it into shared memory.
struct MgTotals {
  double presmooth[kMaxLevels] = {};  // begin(l) -> end(l) hook
  double restrict_[kMaxLevels] = {};  // end(l) -> begin(l+1)
  double post[kMaxLevels] = {};       // halo post() inside the begin hook
  double finish[kMaxLevels] = {};     // halo finish() inside the end hook
  std::int64_t visits[kMaxLevels] = {};
  double driver = 0;  // run_cycle() entry -> begin(0)
  double ret = 0;     // every other in-cycle interval: prolongation,
                      // post-smoothing and the residual norm
  double cycles_wall = 0;  // sum of run_cycle() wall times
  int cycles = 0;
  int levels = 0;

  double attributed() const;
  /// Adds another run's intervals (same hierarchy).
  void accumulate(const MgTotals& o);
};

/// Folds the level-hook events of a solve into MgTotals (and optional
/// spans). The hooks call hook_begin/hook_end with the hook's own start
/// and end time, so exchange work done inside a hook is attributed to
/// post/finish and never to the neighbouring interval.
class MgTimeline {
 public:
  MgTimeline(int levels, SpanLog* log) : log_(log) { tot_.levels = levels; }

  void set_solve(int solve) { solve_ = solve; }
  void cycle_begin();
  void hook_begin(int level, double t_hook0, double t_hook1);
  void hook_end(int level, double t_hook0, double t_hook1);
  void cycle_end();

  const MgTotals& totals() const { return tot_; }

 private:
  enum class Ev { CycleBegin, Begin, End };
  void close_interval(Ev next, int next_level, double t);

  SpanLog* log_;
  MgTotals tot_;
  Ev prev_ = Ev::CycleBegin;
  int prev_level_ = -1;
  double prev_t_ = 0;
  double cycle_t0_ = 0;
  int cycle_ = 0;
  int solve_ = -1;
};

/// Best-of-repetitions wall time per call in ns: two warm-up calls, then
/// `reps` windows of at least `window_s` each.
template <class Fn>
double time_kernel_ns(Fn&& fn, int reps = 5, double window_s = 0.06) {
  fn();
  fn();
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    int iters = 0;
    WallTimer t;
    do {
      fn();
      ++iters;
    } while (t.seconds() < window_s);
    best = std::min(best, t.seconds() * 1e9 / iters);
  }
  return best;
}

/// Size of the largest last-level cache visible to cpu0 in MB (sysfs), 0
/// when unknown.
double llc_mb();

/// STREAM triad a[i] = b[i] + s * c[i] over three arrays of `bytes_each`
/// bytes each on `threads` threads; best of a few passes, in GB/s
/// (24 bytes per element, write-allocate not counted).
double triad_gbs(std::size_t bytes_each, int threads);

/// Peak resident set in MB: this process plus `children` times the largest
/// waited-for child (getrusage reports only the largest child, so for a
/// group of equal ranks this is an upper bound on their sum).
double peak_rss_mb(int children = 0);

}  // namespace columbia::cbench
