// The multigrid cycle orchestrator shared by every solver.
//
// NSU3D and Cart3D used to each own a copy of the same execution
// discipline: the V/W level walk with exclusive per-level timing, the
// convergence loop with its residual-order target, per-cycle records,
// mid-cycle fault-injection hooks, and the guarded-solve wiring
// (checkpoint / rollback / CFL backoff). MultigridDriver is that
// discipline, written once; a solver supplies its physics through a small
// adapter surface and keeps only its smoothers, transfers and residuals.
//
// Required Physics surface (usually private members, with the driver
// befriended):
//
//   const core::SolveParams& solve_params() const;
//   int num_levels() const;
//   void smooth(int level, int steps);
//   void restrict_to(int level);          // level -> level+1
//   void prolong_correction(int level);   // level+1 -> level
//   real_t residual_norm();
//   std::size_t state_count();            // fine-grid state entries
//   void poison_state(std::size_t i);     // fault hook: NaN one entry
//   resil::Checkpoint make_checkpoint(std::uint64_t cycle,
//                                     std::span<const real_t> history) const;
//   void restore_checkpoint(const resil::Checkpoint& c);
//   void apply_backoff(const resil::GuardOptions& g);
//   void telemetry_forces(double& cl, double& cd) const;
//
// The driver is a template, not an interface — see DESIGN.md ("Templated
// driver, not a virtual one") for why.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "obs/obs.hpp"
#include "resil/faults.hpp"
#include "resil/guard.hpp"
#include "support/timer.hpp"
#include "support/types.hpp"

namespace columbia::core {

/// Per-level active-rank schedule for coarse-level agglomeration (paper
/// Fig. 19: coarse multigrid levels leave every rank with a partition too
/// small to amortize per-message latency). Level l runs its halo
/// exchanges on the first `active[l]` members of the transport group —
/// fed to ExchangePlanOptions::active_members — while the remaining
/// members park. The count is monotone non-increasing toward coarser
/// levels, so a member parked on level l stays parked on every level
/// below it.
struct AgglomerationSchedule {
  int group_size = 1;
  index_t min_items_per_member = 0;
  std::vector<int> active;  // per level, in [1, group_size]

  /// `level_items[l]` = nodes/cells of level l; a level keeps only enough
  /// members to give each at least `min_items_per_member` items
  /// (0 disables agglomeration — every level keeps the full group).
  static AgglomerationSchedule build(std::span<const index_t> level_items,
                                     int group_size,
                                     index_t min_items_per_member) {
    AgglomerationSchedule s;
    s.group_size = std::max(group_size, 1);
    s.min_items_per_member = min_items_per_member;
    int prev = s.group_size;
    for (const index_t items : level_items) {
      int a = s.group_size;
      if (min_items_per_member > 0) {
        const index_t want =
            (items + min_items_per_member - 1) / min_items_per_member;
        a = int(std::clamp(want, index_t(1), index_t(s.group_size)));
      }
      a = std::min(a, prev);
      s.active.push_back(a);
      prev = a;
    }
    return s;
  }
};

/// A process-lifetime copy of `name`: recorded spans keep the pointer,
/// and traces are often written after the driver is gone.
inline const char* interned_span_name(const std::string& name) {
  static std::mutex mu;
  static auto* names = new std::set<std::string>;  // never freed
  std::lock_guard<std::mutex> lock(mu);
  return names->insert(name).first->c_str();
}

template <class Physics>
class MultigridDriver {
 public:
  /// `name` keys every observable artifact ("nsu3d", "cart3d"): span and
  /// counter names, cycle records, checkpoint tags.
  explicit MultigridDriver(std::string name)
      : name_(std::move(name)),
        span_cycle_(interned_span_name(name_ + ".cycle")),
        span_level_(interned_span_name(name_ + ".level")),
        span_solve_(interned_span_name(name_ + ".solve")),
        span_guarded_(interned_span_name(name_ + ".solve_guarded")),
        visits_ctr_(&obs::counter(name_ + ".level_visits")),
        cycles_ctr_(&obs::counter(name_ + ".cycles")) {}

  const std::string& name() const { return name_; }

  /// Read-only level-visit hooks for communication/compute overlap:
  /// `begin` fires on entry to every level visit (the place to post() a
  /// split halo exchange) and `end` right after the pre-smoother (the
  /// place to finish() it) — so the exchange flies exactly under the
  /// smoother, the dominant per-visit compute. Hooks must not mutate
  /// solver state: residual histories stay bit-identical with hooks
  /// installed or absent. Pass empty functions to uninstall.
  void set_level_hooks(std::function<void(int)> begin,
                       std::function<void(int)> end) {
    level_begin_ = std::move(begin);
    level_end_ = std::move(end);
  }

  /// One multigrid cycle from the finest level; returns the fine-grid
  /// residual norm. Includes the COLUMBIA_FAULTS state_nan hook: the site
  /// is a per-attempt counter, so a rolled-back retry of the same cycle
  /// draws a fresh injection decision instead of re-faulting.
  /// While recording is on, every call (rolled-back guarded attempts
  /// included) emits one obs::CycleRecord numbered by attempts since the
  /// solve began. Its timings and forces are read-only on the solve.
  real_t run_cycle(Physics& phys) {
    OBS_SPAN(span_cycle_);
    cycles_ctr_->add(1);
    const bool record = obs::enabled();
    if (record) level_seconds_.assign(std::size_t(phys.num_levels()), 0.0);
    mg_cycle(phys, 0);
    resil::FaultInjector& inj = resil::FaultInjector::global();
    if (inj.armed()) {
      const std::uint64_t site = cycle_seq_++;
      if (inj.should_inject(resil::FaultKind::StateNaN, site)) {
        phys.poison_state(std::size_t(
            resil::site_hash(inj.spec().seed, site) % phys.state_count()));
      }
    }
    const real_t r = phys.residual_norm();
    ++attempts_;
    if (record) {
      obs::CycleRecord rec;
      rec.solver = name_;
      rec.cycle = attempts_;
      rec.residual = double(r);
      rec.has_forces = true;
      phys.telemetry_forces(rec.cl, rec.cd);
      for (std::size_t l = 0; l < level_seconds_.size(); ++l)
        rec.levels.push_back({int(l), level_seconds_[l]});
      obs::emit_cycle(rec);
      level_seconds_.clear();
    }
    return r;
  }

  /// Cycles until the residual drops by `orders` orders of magnitude or
  /// `max_cycles` elapse; returns the residual-norm history (initial norm
  /// first).
  std::vector<real_t> solve(Physics& phys, int max_cycles, real_t orders) {
    // COLUMBIA_REPORT flight recorder: prints/appends the phase profile of
    // this solve's window on scope exit. Purely observational — histories
    // stay bit-identical with reporting on or off (test_obs_determinism).
    obs::SolveReportScope report(name_);
    OBS_SPAN(span_solve_);
    attempts_ = 0;
    std::vector<real_t> history{phys.residual_norm()};
    const real_t target = history[0] * std::pow(10.0, -orders);
    for (int c = 0; c < max_cycles; ++c) {
      history.push_back(run_cycle(phys));
      if (history.back() <= target) break;
    }
    return history;
  }

  /// Guarded solve: per-cycle NaN/blow-up detection, rollback to the last
  /// good checkpoint with parameter backoff, optional durable checkpoint +
  /// resume (see resil::guarded_solve). With faults off and no recovery
  /// triggered, the history matches solve() bit for bit.
  resil::GuardedSolveResult solve_guarded(
      Physics& phys, int max_cycles, real_t orders,
      const resil::GuardedSolveOptions& options) {
    obs::SolveReportScope report(name_);
    OBS_SPAN(span_guarded_);
    attempts_ = 0;
    resil::GuardCallbacks cb;
    cb.solver = name_;
    cb.residual_norm = [&phys] { return phys.residual_norm(); };
    cb.run_cycle = [this, &phys] { return run_cycle(phys); };
    cb.snapshot = [&phys](std::uint64_t cycle,
                          std::span<const real_t> history) {
      return phys.make_checkpoint(cycle, history);
    };
    cb.restore = [&phys](const resil::Checkpoint& c) {
      phys.restore_checkpoint(c);
    };
    cb.backoff = [&phys, &options] { phys.apply_backoff(options.guard); };
    return resil::guarded_solve(options, max_cycles, orders, cb);
  }

 private:
  void mg_cycle(Physics& phys, int level) {
    OBS_SPAN(span_level_, "level", level);
    visits_ctr_->add(1);
    // Exclusive per-level timing: the stretch before the coarse-grid visit
    // and the stretch after it, but never the recursion itself.
    const bool timed = !level_seconds_.empty();
    WallTimer t;
    const int nl = phys.num_levels();
    const SolveParams& p = phys.solve_params();
    if (level_begin_) level_begin_(level);
    phys.smooth(level, p.smooth_steps);
    if (level_end_) level_end_(level);
    if (level + 1 >= nl) {
      if (timed) level_seconds_[std::size_t(level)] += t.seconds();
      return;
    }
    phys.restrict_to(level);
    if (timed) level_seconds_[std::size_t(level)] += t.seconds();
    const int visits = (p.cycle == CycleType::W && level + 2 < nl) ? 2 : 1;
    for (int v = 0; v < visits; ++v) mg_cycle(phys, level + 1);
    t.reset();
    phys.prolong_correction(level);
    if (p.post_smooth_steps > 0) phys.smooth(level, p.post_smooth_steps);
    if (timed) level_seconds_[std::size_t(level)] += t.seconds();
  }

  std::string name_;
  const char *span_cycle_, *span_level_, *span_solve_, *span_guarded_;
  obs::Counter* visits_ctr_;
  obs::Counter* cycles_ctr_;

  /// Exclusive per-level seconds for the current cycle; sized only while
  /// recording is on, else empty.
  std::vector<double> level_seconds_;

  /// Monotone cycle-attempt counter: the site id for mid-cycle fault
  /// injection (resil::FaultKind::StateNaN).
  std::uint64_t cycle_seq_ = 0;

  /// run_cycle calls since the current solve began: the record's cycle.
  int attempts_ = 0;

  /// Level-visit hooks (see set_level_hooks); empty = no-op.
  std::function<void(int)> level_begin_;
  std::function<void(int)> level_end_;
};

}  // namespace columbia::core
