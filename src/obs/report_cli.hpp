// The columbia_report command-line logic (tools/columbia_report is a thin
// main around run()), the one reader of recorded telemetry. Lives in the
// obs library so the report tests can drive it hermetically against
// committed fixtures.
//
// Inputs are classified by content, not extension:
//   * Chrome trace JSON ({"traceEvents": [...]}) — from an example's
//     --trace flag (obs::write_trace), read by obs::parse_merged_trace.
//     One file prints its phase profile (with the halo traffic totals of
//     the trace's metrics snapshots) and the convergence rollup of its
//     cycle records (residual trajectory and per-level exclusive time);
//     several files become a scaling series (Fig. 14b/15-style speedup
//     and parallel-efficiency table, keyed by each trace's recorded
//     thread count).
//   * Telemetry shards (obs/shard.hpp) — every shard of one invocation is
//     merged (obs::merge_shards) into one run, reported like a trace.
//   * bench --json reports ({"bench": ...}) — with --baseline PATH, runs
//     the perf-regression gate against the committed BENCH_*.json.
//
// Gate semantics: timing metrics regress when current exceeds baseline by
// more than --tolerance; count metrics (messages, allocs/exchange) must
// not grow at all; thread-sweep timings whose thread count exceeds the
// host's hardware threads are skipped with an explicit reason rather than
// failed (a 1-core CI box cannot measure a 4-thread sweep).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace columbia::obs::report {

/// Exit codes of run(): Ok also covers "nothing regressed".
enum ExitCode { kOk = 0, kRegression = 1, kUsage = 2 };

/// Runs the CLI: `args` excludes argv[0]; human output goes to `out`,
/// diagnostics to `err`. Returns an ExitCode value.
int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err);

}  // namespace columbia::obs::report
