// columbia_report — the performance observatory's offline half.
//
// Ingests the observability layer's machine-readable outputs (Chrome
// traces, telemetry shards, bench --json reports) and produces the
// paper-style analyses: phase profiles with imbalance factors, Fig.
// 14b/15-style speedup and parallel-efficiency tables across runs, per-
// level time and convergence rollups, a halo critical-path estimate,
// and — with --baseline — the perf-regression gate scripts/perf_gate.sh
// drives.
// All logic lives in obs::report::run (src/obs/report_cli.*) so the
// report test suite covers it hermetically.
#include <iostream>
#include <string>
#include <vector>

#include "obs/report_cli.hpp"

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  return columbia::obs::report::run(args, std::cout, std::cerr);
}
