// The two on-disk views of the in-process recording (obs/trace.hpp), one
// writer and one reader each: the per-rank telemetry shard (FlightRecorder
// / parse_shard) and the merged Chrome trace (write_merged_chrome_trace /
// parse_merged_trace). A single process's trace is the merge of one
// in-memory shard (live_shard).
//
// A forked rank process records in its own address space and then
// _exit()s. The FlightRecorder gives every rank a durable shard file: a
// JSONL document holding the rank's span stream, its metrics-registry
// snapshot, its cycle records, and a header stamping rank / pid / launch
// round / backend / build provenance / fault spec / steady-clock epoch +
// the clock-sync offset estimated against member 0 (core/clock_sync.hpp).
//
// Durability discipline: every flush rewrites the whole shard through
// support::durable_write_file (tmp + fsync + rename), and an autoflush
// thread keeps doing so on a short period — so a rank killed by the
// watchdog (peer_hang) or a crash leaves the complete shard of its last
// flush, never a torn file. A shard without its footer line is truncated
// but fully mergeable; parse_jsonl's stop-at-first-bad-line tolerance
// covers even a mid-rename power cut.
//
// The offline half parses shards back, applies each rank's clock offset
// to express every timestamp on member 0's clock, serializes relaunch
// rounds (so k-th-post-to-k-th-wait matching never pairs across a
// relaunch seam), namespaces thread ids, and emits one merged Chrome
// trace consumable by `columbia_report` — the same wait-matrix /
// critical-path / overlap math as the in-process observatory, valid for
// the shm and tcp process backends too.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "obs/json_parse.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"

namespace columbia::obs {

/// Clock-sync result stamped into the shard header (mirrors
/// core::ClockEstimate without making obs depend on core).
struct ShardClock {
  bool synced = false;
  std::int64_t offset_ns = 0;  // member-0 clock minus this rank's clock
  std::int64_t rtt_ns = 0;     // RTT of the min-RTT sample used
  int samples = 0;
};

struct ShardOptions {
  std::string path;        // shard file destination
  int rank = 0;            // group member index
  int ranks = 1;           // group size
  int round = 0;           // run_recovering launch round
  std::string backend;     // wire backend name ("shm", "tcp", ...)
  std::string fault_spec;  // COLUMBIA_FAULTS stamp (resil::render_fault_spec)
  /// Autoflush period; <= 0 records only on explicit flush/finalize.
  int flush_ms = 250;
};

/// Arms the span recorder for one rank process and keeps its shard
/// durable. Construction clears any trace events inherited over fork(),
/// enables recording, writes the first shard image, and starts the
/// autoflush thread; destruction without finalize() leaves the truncated
/// shard of the last flush (exactly what a killed rank leaves).
class FlightRecorder {
 public:
  explicit FlightRecorder(const ShardOptions& opt);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Records the group-start clock-sync estimate and reflushes.
  void set_clock(const ShardClock& clock);

  /// Serializes the current telemetry state and durably rewrites the
  /// shard. False when the write failed (the previous image survives).
  bool flush();

  /// Final flush with the footer line (end clock estimate + drift
  /// baseline); stops the autoflush thread first. Idempotent.
  bool finalize(const ShardClock& end_clock);

  const std::string& path() const { return opt_.path; }

 private:
  bool write_image(bool with_footer, const ShardClock& end_clock);

  ShardOptions opt_;
  ShardClock clock_{};
  std::uint64_t base_ns_ = 0;  // recorder epoch (trace_epoch_ns)
  int flushes_ = 0;
  bool finalized_ = false;
  struct Flusher;
  std::unique_ptr<Flusher> flusher_;
};

// --- Offline shard ingest / merge -----------------------------------------

/// One parsed shard. Event timestamps are microseconds relative to
/// `clock_base_ns`, uncorrected (merge_shards applies the clock offsets).
struct TelemetryShard {
  std::string path;
  int rank = 0, ranks = 1, round = 0;
  std::int64_t pid = 0;
  std::string backend, git_sha, build_type, fault_spec;
  std::uint64_t clock_base_ns = 0;
  ShardClock clock;      // group-start estimate
  ShardClock end_clock;  // footer estimate (valid when !truncated)
  /// No footer line: the rank was killed / crashed after its last flush.
  bool truncated = true;
  int flushes = 0;          // autoflush markers seen (liveness pulses)
  double last_flush_us = 0; // rel time of the last flush marker
  double end_us = 0;        // rel time of the footer (when !truncated)
  /// The rank's counters and gauges as of its last flush (live_shard:
  /// as of the call).
  MetricsSnapshot metrics;
  std::vector<PhaseEvent> events;  // per-thread recording order
  std::vector<CycleRecord> conv;   // cycle records, in emission order
  /// Filled by merge_shards: this shard's rel-0 instant on the merged
  /// timeline (member 0's clock, rounds serialized), microseconds.
  double merged_base_us = 0;

  /// The pool.threads gauge of `metrics`; 0 = unset.
  std::int64_t pool_threads() const {
    const auto it = metrics.gauges.find("pool.threads");
    return it == metrics.gauges.end() ? 0 : it->second;
  }
};

/// Parses one shard document. False (with `error`) when the text does not
/// begin with a telemetry_shard header; a malformed tail after the header
/// parses as a truncated shard, never an error.
bool parse_shard(const std::string& text, TelemetryShard& out,
                 std::string* error = nullptr);
bool read_shard_file(const std::string& path, TelemetryShard& out,
                     std::string* error = nullptr);

/// This process's recording as one shard (rank 0 of 1, round 0, complete):
/// the spans converted as phase_events_since() does, the cycle records,
/// and a snapshot of the metrics registry. Publish pool stats first.
TelemetryShard live_shard();

/// The merged multi-rank timeline plus everything the report layer needs
/// to attribute it: per-shard metadata (events moved out), the member rank
/// behind every merged event, and provenance-mismatch warnings.
struct MergedTelemetry {
  std::vector<PhaseEvent> events;   // clock-corrected, rounds serialized
  std::vector<int> event_member;    // group rank per event (Chrome pid)
  std::vector<TelemetryShard> shards;  // sorted by (round, rank)
  std::vector<std::string> warnings;   // provenance / sync anomalies
  int ranks = 0;
  int rounds = 0;
  /// Threads of the run: the largest pool.threads gauge of any shard, or
  /// the number of threads that recorded spans if that is larger.
  std::int64_t threads = 0;
  std::string backend;    // from the first shard
  std::string git_sha;    // from the first shard
  std::string build_type; // from the first shard
};

/// Clock-aligns and concatenates shards: each event timestamp moves onto
/// member 0's clock via its shard's offset, relaunch rounds are re-based
/// onto disjoint windows in round order, and thread ids are namespaced per
/// shard. Provenance stamps (git SHA, build type, fault spec, backend,
/// group size) are cross-checked and mismatches recorded as warnings.
MergedTelemetry merge_shards(std::vector<TelemetryShard> shards);

/// Merged Chrome trace: pid = group rank, one process-name metadata row
/// per rank, and a "columbia" block carrying per-shard provenance, clock
/// estimates, liveness, metrics and cycle records — the input
/// `columbia_report` consumes.
void write_merged_chrome_trace(std::ostream& os, const MergedTelemetry& m);

/// The inverse of write_merged_chrome_trace. Also reads Chrome traces
/// written before per-shard metadata existed (no "shards" block, no round
/// arguments). False (with `error`) when `doc` has no traceEvents array.
bool parse_merged_trace(const JsonValue& doc, MergedTelemetry& out,
                        std::string* error = nullptr);

/// Merges `shards`, writes the merged trace durably to `path`, and prints
/// the merge warnings (stderr) and a one-line "trace: ..." summary
/// (stdout). False when the file cannot be written.
bool write_trace(const std::string& path, std::vector<TelemetryShard> shards);

/// Canonical shard path for (base, rank, round):
/// "<base>.rank<r>.round<k>.jsonl".
std::string shard_file_path(const std::string& base, int rank, int round);

}  // namespace columbia::obs
