// Communication observatory: merges every rank's halo.xchg spans onto the
// recorder's common clock and attributes each blocking wait to its cause,
// Scalasca-style — late sender (the receiver blocked before the matching
// send was posted) vs late receiver (the message sat delivered before the
// receiver asked for it). The same merged timeline yields the per-(level,
// strategy) rank×neighbor wait matrix, the critical path through the
// exchange DAG, and the per-level overlap headroom the ROADMAP's
// comm/compute-overlap item needs: how much of the measured wait could
// interior compute at that level have hidden, and which coarse levels have
// shrunk into the paper's Fig. 19 regime where an exchange costs more than
// the work it unblocks (the agglomeration advisor).
//
// Inputs are PhaseEvents (obs/report.hpp), so an in-process analysis of
// the live recording and the offline `columbia_report comm` subcommand run
// the exact same math; committed fixture traces in tests/data pin it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/report.hpp"
#include "support/table.hpp"

namespace columbia::obs {

/// One cell of the rank×neighbor wait matrix: everything `rank` spent
/// blocked on messages from `nbr`, split by cause. Waits are matched to
/// posts k-th-to-k-th per directed pair, so retransmitted attempts line up
/// with their re-receives.
struct WaitCell {
  std::int64_t rank = -1;  // waiting (receiving) rank
  std::int64_t nbr = -1;   // sending rank it waited on
  std::uint64_t messages = 0;   // matched post/wait pairs
  std::uint64_t bytes = 0;      // payload bytes of the matched posts
  double wait_s = 0;            // total blocking-wait seconds
  double late_sender_s = 0;     // wait overlapped by the sender's post
  double late_receiver_s = 0;   // message aged before the wait began
  /// Measured end-to-end delivery: sum over matched pairs of (wait end -
  /// post begin) — the wire's share of each message's life, the quantity
  /// the machine-model attribution compares against perf::FabricModel.
  double xfer_s = 0;
  /// Fastest single delivery in the cell (the latency-floor estimate).
  double xfer_min_s = 0;
};

/// Per-(multigrid level, exchange strategy) rollup of the exchange phases.
struct CommGroup {
  std::int64_t level = -1;  // -1 = spans recorded without a level
  std::int64_t strat = -1;  // 0 = thread-to-thread, 1 = master-thread
  std::vector<WaitCell> cells;  // sorted by (rank, nbr)
  double pack_s = 0, post_s = 0, wait_s = 0, unpack_s = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t messages = 0;  // matched pairs over all cells
  std::uint64_t bytes = 0;
  /// Summed measured delivery time and its per-group minimum (see
  /// WaitCell::xfer_s); 0 when no pair matched.
  double xfer_s = 0;
  double xfer_min_s = 0;
  /// Longest dependency chain through the group's exchange DAG: spans
  /// chain sequentially per rank (exclusive durations, so nested waits are
  /// not double-counted) and each wait additionally depends on its matched
  /// post on the sending rank.
  double critical_path_s = 0;
  int ranks = 0;  // distinct ranks that recorded spans in this group
};

/// Per-level overlap headroom and the Fig. 19 agglomeration advice.
struct LevelOverlap {
  std::int64_t level = -1;
  double wait_s = 0;      // blocking wait at this level (all strategies)
  double comm_s = 0;      // all exclusive halo.* seconds at this level
  double interior_s = 0;  // exclusive non-comm seconds at this level
  double coverable_s = 0; // min(wait_s, interior_s)
  double headroom = 1;    // coverable_s / wait_s; 1 when wait_s == 0
  /// Overlap actually claimed by the split post()/finish() path: the
  /// late-receiver seconds at this level — message time that aged under
  /// interior compute before the receiver's wait began. The blocking path
  /// shows ~0 here; the report pairs it against coverable_s to close the
  /// loop on the headroom advisor ("claimed vs coverable").
  double claimed_s = 0;
  /// Rank-agglomeration accounting: exclusive seconds members spent parked
  /// (outside the level's active set, validating locally) and how many
  /// distinct ranks parked.
  double park_s = 0;
  int parked_ranks = 0;
  std::uint64_t exchanges = 0;  // max matched messages over any cell
  int ranks = 0;
  double comm_per_exchange_s = 0;     // comm_s / ranks / exchanges
  double compute_per_exchange_s = 0;  // interior_s / ranks / exchanges
  /// True when per-rank interior work per exchange has dropped below the
  /// per-exchange communication cost — the regime where the paper's
  /// coarse multigrid levels stop scaling and fewer ranks would win.
  bool agglomerate = false;
};

/// Whole-window communication report.
struct CommReport {
  std::vector<CommGroup> groups;    // sorted by (level, strat)
  std::vector<LevelOverlap> levels; // ascending by level
  double wait_s = 0, late_sender_s = 0, late_receiver_s = 0;
  std::uint64_t retransmits = 0;
  int ranks = 0;  // distinct ranks over all comm spans

  bool empty() const { return groups.empty(); }
};

/// True for span names belonging to the halo.xchg instrumentation family.
bool is_xchg_phase(const std::string& name);

/// Builds the report from a window of events (same input contract as
/// build_profile: per-thread recording order, unmatched edges dropped).
CommReport build_comm_report(const std::vector<PhaseEvent>& events);

/// Rank×neighbor wait matrix: one row per (level, strategy, rank, nbr).
Table comm_wait_matrix_table(const CommReport& r);

/// Fig. 16–18-style per-strategy comparison across all groups.
Table comm_strategy_table(const CommReport& r);

/// Per-level overlap headroom + agglomeration advice.
Table comm_overlap_table(const CommReport& r);

class JsonWriter;

/// Emits the report as the next value of an in-progress JsonWriter (the
/// "comm" object of each run in `columbia_report comm --json`).
void write_comm_json_into(JsonWriter& w, const CommReport& r);

/// Human-readable name of a strategy id ("t2t", "master", or "-").
std::string strategy_name(std::int64_t strat);

}  // namespace columbia::obs
