// Performance observatory: rolls the raw span stream (obs/trace.hpp) up
// into the paper-style quantities its evaluation reasons about — exclusive
// per-phase/per-level time tables, load-imbalance factors (max/mean across
// threads, the quantity the paper tracks across ranks and multigrid
// levels), and the communication fraction of total busy time.
//
// One reader: tools/columbia_report parses a trace back into PhaseEvents,
// builds the profile and prints these tables. Everything here is
// read-only over recorded telemetry, so building or printing a profile
// never feeds back into solver arithmetic.
#pragma once

#include <cstdint>
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
  /// Transport totals from the halo counters of the recorded metrics
  /// (add_comm_counters); build_profile leaves them zero.
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

struct MetricsSnapshot;  // obs/metrics.hpp

/// Adds one metrics snapshot's halo transport counters to the profile's
/// comm_* totals: ExchangePlan's halo.plan.{exchanges,messages,bytes} and
/// resil.halo.retransmits. A trace carries one snapshot per shard.
void add_comm_counters(const MetricsSnapshot& s, PhaseProfile& p);

/// Converts the live trace buffers into PhaseEvents; timestamps are
/// microseconds since the earliest event. The front half of live_shard()
/// (obs/shard.hpp) and of the in-process comm-observatory analysis.
std::vector<PhaseEvent> phase_events_since();

/// Per-(phase, level) table of the profile: calls, exclusive totals,
/// instance min/mean/p95/max (milliseconds) and the imbalance factor.
Table profile_table(const PhaseProfile& p);

/// Per-multigrid-level rollup: exclusive seconds and imbalance for every
/// level-tagged phase, summed per level. Empty table if nothing carried a
/// level argument.
Table level_table(const PhaseProfile& p);

/// One-line-per-field summary (wall, busy, comm fraction, traffic).
Table summary_table(const PhaseProfile& p);

}  // namespace columbia::obs
