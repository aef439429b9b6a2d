// The FAS multigrid layer shared by every solver.
//
// Both of the paper's codes reach steady state with the same FAS
// multigrid: NSU3D over agglomerated levels (Sec. III), Cart3D over
// SFC-coarsened Cartesian levels (Sec. V). MultigridDriver is that layer,
// written once:
//
//   * the V/W level walk with exclusive per-level timing, the convergence
//     loop with its residual-order target, per-cycle records, mid-cycle
//     fault-injection hooks, and the guarded-solve wiring (checkpoint /
//     rollback / CFL backoff);
//   * the per-level storage (state, FAS forcing, residual, restricted
//     snapshot, and which residuals are still fresh) and the bookkeeping
//     on it: volume-weighted restriction with the coarse forcing
//     f_c = R_c(I u) - I(R_f(u) - f_f), damped prolongation with its
//     validity guard, the volume-weighted density-residual norm, and the
//     checkpoint layout.
//
// A solver derives from MultigridDriver<Solver, N> (CRTP; N = unknowns per
// node or cell), calls init_levels() from its constructor once its
// hierarchy exists, and supplies only its physics — the adapter surface:
//
//   static constexpr std::size_t kGrain;   // pool chunk grain of its loops
//   static bool state_valid(const State& u);
//   const core::SolveParams& solve_params() const;
//   std::size_t level_size(int l) const;   // nodes/cells of level l
//   std::span<const index_t> to_coarse(int l) const;  // level l -> l+1
//   std::span<const real_t> control_volume(int l);    // per node/cell
//   void compute_residual(int l, const std::vector<State>& u,
//                         std::vector<State>& res, bool second_order);
//   void smooth(int l, int steps);         // updates state_[l] in place
//   (both clear fresh_[l]: one overwrites the level's residual scratch,
//   the other the state that residual was taken of)
//   void project(int l, std::vector<State>& u) const;  // after updates
//   void apply_backoff(const resil::GuardOptions& g);
//   Forces integrate_forces() const;       // any type with .cl and .cd
//
// The grain stays per solver: the norm's reduce_sum partials are one per
// chunk, so the grain fixes its summation order.
//
// The driver is a template, not an interface — see DESIGN.md ("Templated
// driver, not a virtual one") for why.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "obs/obs.hpp"
#include "resil/checkpoint.hpp"
#include "resil/faults.hpp"
#include "resil/guard.hpp"
#include "smp/pool.hpp"
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

/// Process-unique id of one solve: every cycle record carries it, so
/// solves that record at the same time (ranks of an in-process group,
/// database cases side by side) stay separate series.
inline std::uint64_t next_solve_id() {
  static std::atomic<std::uint64_t> last{0};
  return last.fetch_add(1, std::memory_order_relaxed) + 1;
}

template <class Solver, std::size_t N>
class MultigridDriver {
 public:
  using State = std::array<real_t, N>;

  int num_levels() const { return int(state_.size()); }

  /// Fine-grid state.
  const std::vector<State>& solution() const { return state_[0]; }
  /// Current state of any level (coarse levels hold the latest FAS
  /// restriction) — read-only, for per-level halo exchanges driven off
  /// the level hooks.
  const std::vector<State>& solution(int l) const {
    return state_[std::size_t(l)];
  }

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

  /// One multigrid cycle from the finest level (one smoothing pass on a
  /// single grid); returns the fine-grid density-residual norm. Includes
  /// the COLUMBIA_FAULTS state_nan hook: the site is a per-attempt
  /// counter, so a rolled-back retry of the same cycle draws a fresh
  /// injection decision instead of re-faulting.
  /// While recording is on, every call (rolled-back guarded attempts
  /// included) emits one obs::CycleRecord numbered by attempts since the
  /// solve began. Its timings and forces are read-only on the solve.
  real_t run_cycle() {
    OBS_SPAN(span_cycle_);
    cycles_ctr_->add(1);
    const bool record = obs::enabled();
    if (record) level_seconds_.assign(state_.size(), 0.0);
    mg_cycle(0);
    resil::FaultInjector& inj = resil::FaultInjector::global();
    if (inj.armed()) {
      const std::uint64_t site = cycle_seq_++;
      if (inj.should_inject(resil::FaultKind::StateNaN, site)) {
        // Poison one energy entry (component 4; the last of a narrower
        // state) after the cycle's updates so the guard sees a non-finite
        // residual.
        const std::size_t i = std::size_t(
            resil::site_hash(inj.spec().seed, site) % state_[0].size());
        fresh_[0] = false;
        state_[0][i][std::min<std::size_t>(4, N - 1)] =
            std::numeric_limits<real_t>::quiet_NaN();
      }
    }
    const real_t r = residual_norm();
    ++attempts_;
    if (record) {
      obs::CycleRecord rec;
      rec.solver = name_;
      rec.solve_id = solve_id_;
      rec.cycle = attempts_;
      rec.residual = double(r);
      rec.has_forces = true;
      const auto f = self().integrate_forces();
      rec.cl = double(f.cl);
      rec.cd = double(f.cd);
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
  std::vector<real_t> solve(int max_cycles, real_t orders = 6) {
    OBS_SPAN(span_solve_);
    begin_solve();
    std::vector<real_t> history{residual_norm()};
    const real_t target = history[0] * std::pow(10.0, -orders);
    for (int c = 0; c < max_cycles; ++c) {
      history.push_back(run_cycle());
      if (history.back() <= target) break;
    }
    return history;
  }

  /// Guarded solve: per-cycle NaN/blow-up detection, rollback to the last
  /// good checkpoint with parameter backoff, optional durable checkpoint +
  /// resume (see resil::guarded_solve). With faults off and no recovery
  /// triggered, the history matches solve() bit for bit.
  resil::GuardedSolveResult solve_guarded(
      int max_cycles, real_t orders = 6,
      const resil::GuardedSolveOptions& options = {}) {
    OBS_SPAN(span_guarded_);
    begin_solve();
    resil::GuardCallbacks cb;
    cb.solver = name_;
    cb.residual_norm = [this] { return residual_norm(); };
    cb.run_cycle = [this] { return run_cycle(); };
    cb.snapshot = [this](std::uint64_t cycle,
                         std::span<const real_t> history) {
      return make_checkpoint(cycle, history);
    };
    cb.restore = [this](const resil::Checkpoint& c) { restore_checkpoint(c); };
    cb.backoff = [this, &options] { self().apply_backoff(options.guard); };
    return resil::guarded_solve(options, max_cycles, orders, cb);
  }

  /// Density-residual norm of the current fine-grid state: the RMS of
  /// R_0 / V over the entries with positive control volume.
  real_t residual_norm() {
    level_residual(0);
    const std::span<const real_t> vol = self().control_volume(0);
    const std::vector<State>& r0 = residual_[0];
    // Counted on the first norm rather than in init_levels: Cart3D builds
    // a level's volumes with its geometry, on first use.
    if (fluid_count_ == 0)
      fluid_count_ = std::size_t(std::count_if(
          vol.begin(), vol.end(), [](real_t v) { return v > 0; }));
    // Deterministic tree reduction: fixed chunking, partials combined in
    // chunk order, so the norm is bit-identical for every thread count.
    const real_t sum = smp::ThreadPool::global().reduce_sum(
        0, r0.size(), Solver::kGrain, [&](std::size_t b, std::size_t e) {
          real_t s = 0;
          for (std::size_t i = b; i < e; ++i) {
            const real_t v = vol[i];
            if (v <= 0) continue;
            const real_t r = r0[i][0] / v;
            s += r * r;
          }
          return s;
        });
    return std::sqrt(sum / real_t(std::max<std::size_t>(1, fluid_count_)));
  }

  /// Snapshot of the fine-grid state (every unknown) plus cycle/history.
  /// Coarse-level state is rebuilt by the next cycle's FAS restriction, so
  /// restoring this checkpoint reproduces the uninterrupted residual
  /// history bit-identically.
  resil::Checkpoint make_checkpoint(std::uint64_t cycle,
                                    std::span<const real_t> history) const {
    resil::Checkpoint c;
    c.solver = name_;
    c.cycle = cycle;
    c.state_stride = N;
    c.history.assign(history.begin(), history.end());
    c.state.reserve(state_[0].size() * N);
    for (const State& s : state_[0])
      c.state.insert(c.state.end(), s.begin(), s.end());
    return c;
  }

  /// Restores a checkpoint from make_checkpoint; throws std::runtime_error
  /// (and changes nothing) when the solver tag or state size does not
  /// match this configuration.
  void restore_checkpoint(const resil::Checkpoint& c) {
    if (c.solver != name_)
      throw std::runtime_error("checkpoint solver mismatch: got '" + c.solver +
                               "', expected '" + name_ + "'");
    if (c.state_stride != N || c.state.size() != state_[0].size() * N)
      throw std::runtime_error("checkpoint state size mismatch for " + name_ +
                               " grid");
    std::vector<State>& u = state_[0];
    for (std::size_t i = 0; i < u.size(); ++i)
      for (std::size_t k = 0; k < N; ++k) u[i][k] = c.state[i * N + k];
    fresh_.assign(fresh_.size(), false);
  }

 protected:
  /// `name` keys every observable artifact ("nsu3d", "cart3d"): span and
  /// counter names, cycle records, checkpoint tags.
  explicit MultigridDriver(std::string name)
      : name_(std::move(name)),
        span_cycle_(interned_span_name(name_ + ".cycle")),
        span_level_(interned_span_name(name_ + ".level")),
        span_solve_(interned_span_name(name_ + ".solve")),
        span_guarded_(interned_span_name(name_ + ".solve_guarded")),
        visits_ctr_(&obs::counter(name_ + ".level_visits")),
        cycles_ctr_(&obs::counter(name_ + ".cycles")),
        solve_id_(next_solve_id()) {}

  /// Sizes every level from the solver's level_size(), starts each at
  /// `far_field` (also the state of a coarse entry with no volume), and
  /// applies the solver's projection to the fine grid. Call once, from
  /// the solver's constructor, after its hierarchy exists.
  void init_levels(int num_levels, const State& far_field) {
    const std::size_t nl = std::size_t(num_levels);
    far_field_ = far_field;
    state_.resize(nl);
    forcing_.resize(nl);
    residual_.resize(nl);
    snapshot_.resize(nl);
    transfer_.resize(nl);
    fresh_.assign(nl, false);
    for (std::size_t l = 0; l < nl; ++l) {
      const std::size_t n = self().level_size(int(l));
      state_[l].assign(n, far_field);
      forcing_[l].assign(n, State{});
      residual_[l].assign(n, State{});
    }
    self().project(0, state_[0]);
  }

  /// R(state_[l]) into residual_[l] with smooth(l)'s operator (second
  /// order only on the finest level), unless still fresh.
  void level_residual(int l) {
    if (fresh_[std::size_t(l)]) return;
    self().compute_residual(l, state_[std::size_t(l)],
                            residual_[std::size_t(l)],
                            self().solve_params().second_order && l == 0);
    fresh_[std::size_t(l)] = true;
  }

  /// Elementwise (no cross-index writes) pool loop over [0, n) in the
  /// solver's grain.
  template <class Fn>
  static void for_entries(std::size_t n, Fn&& body) {
    smp::ThreadPool::global().parallel_for(
        0, n, Solver::kGrain, [&](std::size_t b, std::size_t e, int) {
          for (std::size_t i = b; i < e; ++i) body(i);
        });
  }

  std::vector<std::vector<State>> state_;
  std::vector<std::vector<State>> forcing_;
  std::vector<std::vector<State>> residual_;

  /// Per level: residual_[l] (and the solver's residual scratch for l)
  /// hold R(state_[l]) under the operator smooth(l) uses. The residual
  /// that ends a cycle (or a restriction) is then the one the next
  /// smoothing step starts from, so it is computed once. Cleared by every
  /// write to state_[l] and by the solver's public compute_residual,
  /// which overwrites its scratch.
  std::vector<bool> fresh_;

 private:
  Solver& self() { return static_cast<Solver&>(*this); }
  const Solver& self() const { return static_cast<const Solver&>(*this); }

  void begin_solve() {
    attempts_ = 0;
    solve_id_ = next_solve_id();
  }

  void mg_cycle(int level) {
    OBS_SPAN(span_level_, "level", level);
    visits_ctr_->add(1);
    // Exclusive per-level timing: the stretch before the coarse-grid visit
    // and the stretch after it, but never the recursion itself.
    const bool timed = !level_seconds_.empty();
    WallTimer t;
    const int nl = num_levels();
    const SolveParams& p = self().solve_params();
    if (level_begin_) level_begin_(level);
    self().smooth(level, p.smooth_steps);
    if (level_end_) level_end_(level);
    if (level + 1 >= nl) {
      if (timed) level_seconds_[std::size_t(level)] += t.seconds();
      return;
    }
    restrict_to(level);
    if (timed) level_seconds_[std::size_t(level)] += t.seconds();
    const int visits = (p.cycle == CycleType::W && level + 2 < nl) ? 2 : 1;
    for (int v = 0; v < visits; ++v) mg_cycle(level + 1);
    t.reset();
    prolong_correction(level);
    if (p.post_smooth_steps > 0) self().smooth(level, p.post_smooth_steps);
    if (timed) level_seconds_[std::size_t(level)] += t.seconds();
  }

  /// Level l -> l+1: volume-weighted state restriction, then the FAS
  /// forcing f_c = R_c(I u) - I(R_f(u) - f_f). The fine residual comes
  /// from the operator actually solved on that level (second order on the
  /// finest grid), else the coarse correction targets the wrong equation
  /// and multigrid stalls.
  void restrict_to(int l) {
    const std::size_t f = std::size_t(l), c = f + 1;
    const std::span<const index_t> map = self().to_coarse(l);
    const std::span<const real_t> fine_vol = self().control_volume(l);
    const std::size_t nf = state_[f].size(), nc = state_[c].size();
    std::vector<State>& uc = state_[c];
    Transfer& t = transfer_[c];

    fresh_[c] = false;
    uc.assign(nc, State{});
    t.vol.assign(nc, 0.0);
    for (std::size_t i = 0; i < nf; ++i) {
      const std::size_t j = std::size_t(map[i]);
      const real_t v = fine_vol[i];
      t.vol[j] += v;
      for (std::size_t k = 0; k < N; ++k) uc[j][k] += v * state_[f][i][k];
    }
    for (std::size_t j = 0; j < nc; ++j) {
      if (t.vol[j] <= 0) {
        uc[j] = far_field_;
        continue;
      }
      for (std::size_t k = 0; k < N; ++k) uc[j][k] /= t.vol[j];
    }
    snapshot_[c] = uc;

    level_residual(l);
    t.transferred.assign(nc, State{});
    for (std::size_t i = 0; i < nf; ++i) {
      const std::size_t j = std::size_t(map[i]);
      for (std::size_t k = 0; k < N; ++k)
        t.transferred[j][k] += residual_[f][i][k] - forcing_[f][i][k];
    }
    // R(u_c) is the coarse smoother's own operator (first order below the
    // fine level), so its first smoothing step reuses it.
    level_residual(l + 1);
    std::vector<State>& fc = forcing_[c];
    fc.assign(nc, State{});
    for (std::size_t j = 0; j < nc; ++j)
      for (std::size_t k = 0; k < N; ++k)
        fc[j][k] = residual_[c][j][k] - t.transferred[j][k];
  }

  /// Level l+1 -> l: adds damping x (coarse state - restricted snapshot)
  /// to every fine entry whose updated state stays valid, then the
  /// solver's projection. The post-smoothing that mg_cycle runs next is
  /// load-bearing: it damps the high-frequency error this
  /// piecewise-constant injection leaves, which a limited second-order
  /// fine operator would otherwise amplify.
  void prolong_correction(int l) {
    const std::span<const index_t> map = self().to_coarse(l);
    const std::vector<State>& uc = state_[std::size_t(l) + 1];
    const std::vector<State>& snap = snapshot_[std::size_t(l) + 1];
    std::vector<State>& uf = state_[std::size_t(l)];
    const real_t damping = self().solve_params().correction_damping;
    for_entries(uf.size(), [&](std::size_t i) {
      const std::size_t j = std::size_t(map[i]);
      State unew = uf[i];
      for (std::size_t k = 0; k < N; ++k)
        unew[k] += damping * (uc[j][k] - snap[j][k]);
      if (Solver::state_valid(unew)) uf[i] = unew;
    });
    fresh_[std::size_t(l)] = false;
    self().project(l, uf);
  }

  /// Coarse state as restricted, before the coarse visit smoothed it.
  std::vector<std::vector<State>> snapshot_;

  /// Restriction scratch, coarse-level sized: steady-state cycles perform
  /// no heap allocation (vectors keep their capacity).
  struct Transfer {
    std::vector<real_t> vol;
    std::vector<State> transferred;
  };
  std::vector<Transfer> transfer_;

  State far_field_{};
  /// Fine entries with positive control volume: the norm's denominator
  /// (0 until the first norm counts them).
  std::size_t fluid_count_ = 0;

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

  /// The records' solve id: drawn per instance, and again at each
  /// solve()/solve_guarded() entry.
  std::uint64_t solve_id_ = 0;

  /// Level-visit hooks (see set_level_hooks); empty = no-op.
  std::function<void(int)> level_begin_;
  std::function<void(int)> level_end_;
};

}  // namespace columbia::core
