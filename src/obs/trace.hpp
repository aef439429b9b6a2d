// The in-process recording, the only telemetry stream: scoped spans in
// per-thread buffers plus one cycle record per multigrid cycle. The shard
// and the merged Chrome trace (obs/shard.hpp) are views of it.
//
// Recording path: an `OBS_SPAN("name")` guard pushes a begin event on
// construction and an end event on destruction into the calling thread's
// buffer. Buffers are append-only chunked arrays published with a single
// release store per event — no locks on the hot path, and readers
// (exporters) synchronize through one acquire load of the event count.
// Cycle records are rare and append under the buffer registry's lock.
//
// Cost model: with the runtime flag off (the default) a span is one
// relaxed atomic load and a branch. Recording never touches solver
// arithmetic, so residual histories are bit-identical with it on or off
// at any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace columbia::obs {

/// Master runtime switch for spans and metrics. Defaults to off unless the
/// COLUMBIA_TRACE environment variable is set to a nonzero value.
bool enabled();
void set_enabled(bool on);

/// Named integer attribute attached to a 'B' event. `name` must be a
/// string literal (or otherwise outlive the recorder).
struct SpanArg {
  const char* name = nullptr;
  std::int64_t value = 0;
};

/// Maximum attributes per span: the halo.xchg family needs
/// rank/nbr/level/strat/bytes.
inline constexpr int kMaxSpanArgs = 5;

/// One begin or end event. `name` and arg names must be string literals
/// (or otherwise outlive the recorder); `tid` is filled in at export time
/// from the owning buffer.
struct TraceEvent {
  const char* name = nullptr;
  SpanArg args[kMaxSpanArgs];  // optional integer arguments on 'B' events
  int nargs = 0;
  std::uint64_t ts_ns = 0;
  std::uint32_t tid = 0;
  char phase = 'B';  // 'B' or 'E'

  /// Value of the argument named `key`, or `fallback` when absent.
  std::int64_t arg_or(const char* key, std::int64_t fallback) const;
};

void record_span_event(const char* name, char phase,
                       const SpanArg* args = nullptr, int nargs = 0);

/// RAII span. Prefer the OBS_SPAN macro (obs/obs.hpp), which names the
/// guard for you.
class SpanGuard {
 public:
  explicit SpanGuard(const char* name) {
    if (enabled()) {
      name_ = name;
      record_span_event(name, 'B');
    }
  }
  SpanGuard(const char* name, const char* arg_name, std::int64_t arg_value) {
    if (enabled()) {
      name_ = name;
      const SpanArg arg{arg_name, arg_value};
      record_span_event(name, 'B', &arg, 1);
    }
  }
  /// Multi-attribute span (at most kMaxSpanArgs; extras are dropped).
  SpanGuard(const char* name, std::initializer_list<SpanArg> args) {
    if (enabled()) {
      name_ = name;
      record_span_event(name, 'B', args.begin(), int(args.size()));
    }
  }
  ~SpanGuard() {
    if (name_) record_span_event(name_, 'E');
  }

  /// Ends the span before scope exit (idempotent); the destructor then
  /// records nothing.
  void close() {
    if (name_) {
      record_span_event(name_, 'E');
      name_ = nullptr;
    }
  }

  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  // Non-null iff a begin event was recorded: the end event pairs with it
  // even if tracing is switched off mid-span.
  const char* name_ = nullptr;
};

/// Total events recorded across all thread buffers.
std::size_t num_trace_events();

/// The recorder epoch: the steady-clock tick (WallTimer::now_ns units) all
/// exported timestamps are relative to. Pinned at the first of set_enabled
/// / export / this call — a forked rank pins its own epoch, which is why
/// telemetry shards record it (obs/shard.hpp) for offline clock alignment.
std::uint64_t trace_epoch_ns();

/// All recorded events, per-buffer in program order (so each thread's
/// begin/end events are properly nested), with `tid` filled in.
std::vector<TraceEvent> trace_snapshot();

/// Wall time attributed to one multigrid level within a cycle.
struct LevelSeconds {
  int level = 0;
  double seconds = 0;
};

/// One multigrid cycle attempt: core::MultigridDriver::run_cycle emits one
/// per call while recording is on, rolled-back guarded attempts included.
struct CycleRecord {
  std::string solver;  // "nsu3d" or "cart3d"
  /// Process-unique id of the solve that ran the cycle
  /// (core::next_solve_id); 0 = unknown, in records written before ids.
  std::uint64_t solve_id = 0;
  int cycle = 0;       // 1-based cycle attempt within the solve
  double residual = 0;
  bool has_forces = false;
  double cl = 0, cd = 0;
  std::vector<LevelSeconds> levels;
};

/// Appends one cycle record to the recording. Thread-safe: records from
/// simultaneous solves interleave whole, told apart by their solve_id.
void emit_cycle(const CycleRecord& rec);

/// Every cycle record emitted since the last reset_trace(), in order.
std::vector<CycleRecord> cycle_records();

/// Clears every buffer's event count and the cycle records (buffers
/// themselves persist, so thread-local recorders stay valid). Call only
/// while no spans are open.
void reset_trace();

}  // namespace columbia::obs
