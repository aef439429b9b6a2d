// columbia_bench: time-to-solution benchmark over four closed-loop
// workloads (see README.md in this directory for the workload rationale,
// metric table and bounds).
//
// Layout of the package:
//   columbia_bench.cpp  CLI: one workload, --all (fork+exec per workload),
//                       --compare, the result line and result files
//   workloads.cpp       the four workloads, driven through public APIs
//   layers.cpp          bench-side spans, multigrid hook timeline, kernel
//                       and host probes used by the traced run
//   report.cpp          statistics, JSON documents, references, compare
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json_parse.hpp"

namespace columbia::cbench {

/// Workload names in --all order. nsu3d-shm4 forks ranks, so it must run
/// in a process whose thread pool has not started yet; --all gives every
/// workload its own process anyway.
inline const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"nsu3d-wing", "cart3d-sslv",
                                              "sslv-database", "nsu3d-shm4"};
  return names;
}

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30;  // length of the measured closed loop
  bool trace = false;   // per-layer run instead of the end-to-end run
  bool smoke = false;   // toy sizes; also checks the bench loop vs solve()
  std::string out_dir = ".bench_build/results";
  std::string refs_path = "columbia_bench/references.json";
};

/// Angle-of-attack shift for a seed: 0 for seed 1 (the reference
/// configuration), else a deterministic offset within +-0.1 degrees.
double alpha_offset_deg(std::uint64_t seed);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// One output value of a solve or case, compared against the seed-1
/// reference: `exact` values must match bit for bit, the others to 1e-9
/// relative.
struct Output {
  std::string name;
  double value = 0;
  bool exact = false;
};

/// Everything one workload run measured.
struct Result {
  std::string workload;
  int threads = 1;  // COLUMBIA_THREADS the workload runs its solver pool at

  // End-to-end samples (one per repeat unless noted).
  std::vector<double> tts_s;
  std::vector<double> cycle_s;      // every timed cycle of every repeat
  std::vector<double> s_per_cycle;  // per-repeat value when cycles are not
                                    // individually visible (sslv-database)
  std::vector<double> setup_s;
  std::vector<double> cycles;
  std::vector<double> orders;
  double peak_rss_mb = 0;

  int attempted = 0;
  int failed = 0;
  std::vector<std::string> errors;

  /// Outputs of the first repeat (the reference comparison input).
  std::vector<Output> outputs;

  /// Per-layer metrics of a traced run: `summary` is the fixed set every
  /// workload reports (BENCHMARK.json per_layer); `layers` the full,
  /// workload-specific breakdown written to the per-layer JSON.
  std::vector<Metric> summary;
  std::vector<Metric> layers;
};

/// Runs one workload (workloads.cpp). Never throws: failures land in
/// Result::failed / errors.
Result run_workload(const Config& cfg);

// --- report.cpp -------------------------------------------------------------

double median(std::vector<double> v);
/// Quartiles exactly as Python's statistics.quantiles(v, n=4) (exclusive
/// method); a single value is its own quartiles.
std::vector<double> quartiles(std::vector<double> v);
/// Linear-interpolated percentile p in [0, 100].
double percentile(std::vector<double> v, double p);

/// The end-to-end metrics of a run, by BENCHMARK.json name.
std::vector<Metric> end_to_end_metrics(const Result& r);

/// Compares r.outputs with the workload's entry in the references file;
/// returns false (with reasons appended to r.errors) on a mismatch.
bool check_references(Result& r, const std::string& refs_path);

/// Replaces the workload's entry in the references file with r.outputs.
bool record_references(const Result& r, const std::string& refs_path);

/// Host provenance stamped into every result file.
struct Host {
  double llc_mb = 0;
  double triad_gbs = 0;
  double triad_array_mb = 0;  // size of each of the three triad arrays
};

/// Writes the result document (<out_dir>/<workload>-s<seed>-<n>.json, and
/// for traced runs <out_dir>/trace/<workload>.layers.json); returns the
/// result file path, empty on failure.
std::string write_result_files(const Config& cfg, const Result& r,
                               const std::vector<Metric>& metrics,
                               const Host& host);

/// The one-line JSON result the benchmark prints last.
std::string result_line(bool correct, int attempted, int failed,
                        const std::vector<Metric>& metrics);

bool read_json_file(const std::string& path, obs::JsonValue& out,
                    std::string* error);

/// `columbia_bench --compare A B`: per workload and end-to-end metric,
/// medians + quartiles of both sides and a verdict against the bound.
/// Returns the exit code (nonzero when any verdict is `worse`).
int compare_dirs(const std::string& a, const std::string& b,
                 const std::string& benchmark_path);

/// Smoke validation of one parsed result line against BENCHMARK.json:
/// every end_to_end (untraced) or per_layer (traced) metric present with
/// its unit. Appends problems to `errors`.
void validate_result_line(const obs::JsonValue& line, bool traced,
                          const obs::JsonValue& benchmark,
                          std::vector<std::string>& errors);

}  // namespace columbia::cbench
