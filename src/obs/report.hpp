// Performance observatory: rolls the raw span stream (obs/trace.hpp) up
// into the paper-style quantities its evaluation reasons about — exclusive
// per-phase/per-level time tables, load-imbalance factors (max/mean across
// threads, the quantity the paper tracks across ranks and multigrid
// levels), and the communication fraction of total busy time.
//
// Two consumers share this aggregation:
//   * in-process: MultigridDriver wraps every solve in a SolveReportScope;
//     with COLUMBIA_REPORT set, the end of the solve prints a
//     flight-recorder summary and can append the profile as JSONL.
//   * offline: tools/columbia_report parses Chrome-trace files back into
//     PhaseEvents and feeds them through the same profile builder, so the
//     live summary and the offline analysis can never disagree.
//
// Everything here is read-only over recorded telemetry: building or
// printing a profile never feeds back into solver arithmetic, so residual
// histories stay bit-identical with COLUMBIA_REPORT on or off.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "support/table.hpp"

namespace columbia::obs {

/// One begin/end span event with owned strings — the common currency of
/// the in-process snapshot and the offline Chrome-trace ingest.
struct PhaseEvent {
  std::string name;
  char phase = 'B';         // 'B' or 'E'
  double ts_us = 0;         // relative timestamp, microseconds
  int tid = 0;
  std::int64_t level = -1;  // multigrid level from the span arg; -1 = none
  // halo.xchg attributes (comm observatory); -1 when absent.
  std::int64_t rank = -1;   // logical rank that recorded the span
  std::int64_t nbr = -1;    // neighbor rank the message moves to/from
  std::int64_t strat = -1;  // exchange strategy: 0 = t2t, 1 = master
  std::int64_t bytes = -1;  // payload bytes (post/pack spans)
  /// Launch round the event was recorded in (run_recovering relaunches).
  /// In-process recordings are always round 0; merged telemetry shards
  /// stamp it so post/wait matching never pairs across a relaunch seam.
  std::int64_t round = 0;
};

/// Exclusive-time statistics for one (phase, level) pair. `min/mean/p95/
/// max` are over individual span instances (exclusive duration: the span
/// minus its same-thread children); `imbalance` is max/mean over the
/// per-thread exclusive totals — 1.0 means perfectly balanced, and it is
/// reported only when more than one thread recorded the phase.
struct PhaseStats {
  std::string phase;
  std::int64_t level = -1;
  std::uint64_t calls = 0;
  int threads = 0;       // distinct tids that recorded this phase
  double total_s = 0;    // sum of exclusive seconds over all instances
  double min_s = 0, mean_s = 0, p95_s = 0, max_s = 0;  // per-instance
  double imbalance = 1;  // max/mean of per-thread totals
};

/// Per-multigrid-level rollup: every level-tagged phase's exclusive time
/// summed per level, with the cross-thread imbalance of that level's work.
struct LevelStats {
  std::int64_t level = 0;
  std::uint64_t calls = 0;
  double total_s = 0;
  double imbalance = 1;  // max/mean of per-thread totals on this level
  double comm_s = 0;     // exclusive halo.* share of total_s on this level
};

/// Whole-run rollup produced by build_profile().
struct PhaseProfile {
  std::vector<PhaseStats> phases;  // sorted by total_s descending
  std::vector<LevelStats> levels;  // ascending by level
  double wall_s = 0;  // max over threads of (last end - first begin)
  double busy_s = 0;  // sum of all exclusive time, all threads
  /// Exclusive time spent in communication phases (span names beginning
  /// with "halo.") and its share of busy_s — the paper's communication
  /// fraction.
  double comm_s = 0;
  double comm_fraction = 0;
  /// Per-thread total communication seconds (index = position in the
  /// sorted tid list, not the tid itself). max(comm_per_thread) is the
  /// halo critical-path estimate: no schedule can finish its exchanges
  /// faster than its busiest thread.
  std::vector<double> comm_per_thread;
  /// Transport totals from the metrics registry (in-process profiles
  /// only; zero for offline trace ingest, which has no counter stream).
  std::uint64_t comm_exchanges = 0;
  std::uint64_t comm_messages = 0;
  std::uint64_t comm_bytes = 0;
  std::uint64_t comm_retransmits = 0;
};

/// True for span names the profile counts as communication.
bool is_comm_phase(const std::string& name);

/// Aggregates balanced begin/end pairs into a profile. Events must be
/// grouped per thread in recording order (both producers guarantee this);
/// unmatched begins/ends at the edges of the window are dropped.
PhaseProfile build_profile(const std::vector<PhaseEvent>& events);

/// Converts the live trace buffers into PhaseEvents, keeping only events
/// with ts_ns >= min_ts_ns; timestamps are microseconds since the earliest
/// kept event. The shared front half of current_profile(), SolveReportScope,
/// live_shard() (obs/shard.hpp) and the comm-observatory analyzer.
std::vector<PhaseEvent> phase_events_since(std::uint64_t min_ts_ns = 0);

/// Converts the live trace buffers into PhaseEvents, keeping only events
/// with ts_ns >= min_ts_ns (so a solve can profile just its own window),
/// then builds the profile and fills the transport totals from the
/// "halo.*" counters.
PhaseProfile current_profile(std::uint64_t min_ts_ns = 0);

/// Per-(phase, level) table of the profile: calls, exclusive totals,
/// instance min/mean/p95/max (milliseconds) and the imbalance factor.
Table profile_table(const PhaseProfile& p);

/// Per-multigrid-level rollup: exclusive seconds and imbalance for every
/// level-tagged phase, summed per level. Empty table if nothing carried a
/// level argument.
Table level_table(const PhaseProfile& p);

/// One-line-per-field summary (wall, busy, comm fraction, traffic).
Table summary_table(const PhaseProfile& p);

struct CommReport;  // obs/comm_report.hpp

/// Writes the profile as one JSON object:
/// {"solver", "wall_s", "busy_s", "comm": {...}, "phases": [...]}. When
/// `comm` is non-null a "comm_xchg" object (wait matrix, late-sender/
/// receiver split, overlap headroom) is appended.
void write_profile_json(std::ostream& os, const std::string& name,
                        const PhaseProfile& p,
                        const CommReport* comm = nullptr);

class JsonWriter;

/// Same object, emitted as the next value of an in-progress JsonWriter —
/// lets bench::Reporter embed the profile inside its own document.
void write_profile_json_into(JsonWriter& w, const std::string& name,
                             const PhaseProfile& p,
                             const CommReport* comm = nullptr);

// --- COLUMBIA_REPORT runtime switch -------------------------------------
//
// COLUMBIA_REPORT=1 prints the flight-recorder summary (stderr) at the
// end of every solve; any other non-zero value is a path the profile is
// appended to as JSONL, one record per solve, in addition to the summary.

/// True when end-of-solve reporting is requested (env or override).
bool report_enabled();
/// JSONL destination ("" = print only).
const std::string& report_path();
/// Test/driver override; replaces whatever the environment said.
void set_report(bool on, const std::string& path = "");

/// RAII hook used by core::MultigridDriver: when reporting is enabled,
/// construction turns the span recorder on and marks the window start;
/// destruction builds the profile for the window, prints the summary and
/// appends the JSONL record, then restores the previous recorder state.
/// Inert when reporting is off or the obs layer is compiled out.
class SolveReportScope {
 public:
  explicit SolveReportScope(std::string name);
  ~SolveReportScope();

  SolveReportScope(const SolveReportScope&) = delete;
  SolveReportScope& operator=(const SolveReportScope&) = delete;

 private:
  std::string name_;
  bool active_ = false;
  bool was_enabled_ = false;
  std::uint64_t t0_ns_ = 0;
  // Transport counters at window start: the registry is cumulative across
  // the process, the report wants this solve's traffic only.
  std::uint64_t c0_exchanges_ = 0, c0_messages_ = 0, c0_bytes_ = 0,
                c0_retransmits_ = 0;
};

}  // namespace columbia::obs
