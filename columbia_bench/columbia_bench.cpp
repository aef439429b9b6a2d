// columbia_bench: time to solution of the paper's two codes on four
// closed-loop workloads, with a separate traced run for the per-layer
// breakdown. See README.md in this directory.
//
//   columbia_bench --workload W [--seed S] [--seconds T] [--trace 0|1]
//                  [--out DIR] [--refs PATH] [--record-refs] [--smoke]
//       One workload in this process. Prints every metric by name with its
//       unit, checks the outputs (seed 1 against the recorded references),
//       writes a result file to DIR and, last, one JSON result line.
//   columbia_bench --all [same options] [--benchmark PATH]
//       Every workload, each in a fresh child process (fork + exec of this
//       binary). With --smoke: toy sizes, both the untraced and the traced
//       pass, every result line checked against BENCHMARK.json.
//   columbia_bench --compare A B [--benchmark PATH]
//       Medians and quartiles of two result directories per workload and
//       end-to-end metric, with a verdict against the BENCHMARK.json bound.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.hpp"
#include "layers.hpp"

using namespace columbia;
using namespace columbia::cbench;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: columbia_bench --workload W [--seed S] [--seconds T] "
      "[--trace 0|1]\n"
      "                      [--out DIR] [--refs PATH] [--record-refs] "
      "[--smoke]\n"
      "       columbia_bench --all [same options] [--benchmark PATH]\n"
      "       columbia_bench --compare A B [--benchmark PATH]\n"
      "workloads:");
  for (const std::string& w : workload_names())
    std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
}

struct Cli {
  Config cfg;
  bool all = false;
  bool record_refs = false;
  std::string compare_a, compare_b;
  std::string benchmark = "BENCHMARK.json";
};

bool parse(int argc, char** argv, Cli& cli) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    auto value = [&]() -> const char* { return argv[++i]; };
    if (a == "--all") {
      cli.all = true;
    } else if (a == "--smoke") {
      cli.cfg.smoke = true;
    } else if (a == "--record-refs") {
      cli.record_refs = true;
    } else if (a == "--compare" && i + 2 < argc) {
      cli.compare_a = argv[++i];
      cli.compare_b = argv[++i];
    } else if (!has_value) {
      std::fprintf(stderr, "columbia_bench: bad or incomplete option '%s'\n",
                   a.c_str());
      return false;
    } else if (a == "--workload") {
      cli.cfg.workload = value();
    } else if (a == "--seed") {
      cli.cfg.seed = std::strtoull(value(), nullptr, 10);
    } else if (a == "--seconds") {
      cli.cfg.seconds = std::atof(value());
    } else if (a == "--trace") {
      cli.cfg.trace = std::strcmp(value(), "0") != 0;
    } else if (a == "--out") {
      cli.cfg.out_dir = value();
    } else if (a == "--refs") {
      cli.cfg.refs_path = value();
    } else if (a == "--benchmark") {
      cli.benchmark = value();
    } else {
      std::fprintf(stderr, "columbia_bench: unknown option '%s'\n", a.c_str());
      return false;
    }
  }
  if (!(cli.cfg.seconds > 0)) {
    std::fprintf(stderr, "columbia_bench: --seconds must be positive\n");
    return false;
  }
  return true;
}

void print_metrics(const char* kind, const std::vector<Metric>& ms) {
  for (const Metric& m : ms)
    std::printf("%s %-38s %14.6g %s\n", kind, m.name.c_str(), m.value,
                m.unit.c_str());
}

int run_one(const Cli& cli) {
  const Config& cfg = cli.cfg;
  std::error_code ec;
  std::filesystem::create_directories(cfg.out_dir + "/trace", ec);
  std::printf("columbia_bench %s seed=%llu seconds=%g trace=%d%s\n",
              cfg.workload.c_str(), (unsigned long long)cfg.seed, cfg.seconds,
              cfg.trace ? 1 : 0, cfg.smoke ? " smoke" : "");
  std::fflush(stdout);

  Result r = run_workload(cfg);
  if (cli.record_refs) {
    if (r.failed == 0 && r.errors.empty() && cfg.seed == 1 &&
        record_references(r, cfg.refs_path))
      std::printf("recorded references for %s in %s\n", r.workload.c_str(),
                  cfg.refs_path.c_str());
    else
      r.errors.push_back("references not recorded (needs seed 1, no failures)");
  } else if (cfg.seed == 1 && !cfg.smoke && !check_references(r, cfg.refs_path)) {
    // A reference mismatch fails every unit of the run: all repeats are
    // bitwise equal to the first, which is the one compared.
    r.failed = r.attempted;
  }

  // Provenance: host memory bandwidth on arrays of at least 4x the LLC
  // (toy arrays under --smoke), measured after peak RSS was sampled.
  Host host;
  host.llc_mb = llc_mb();
  host.triad_array_mb = cfg.smoke ? 8 : std::max(4.0 * host.llc_mb, 64.0);
  host.triad_gbs =
      triad_gbs(std::size_t(host.triad_array_mb * 1048576.0), 4);

  std::vector<Metric> metrics = cfg.trace ? r.summary : end_to_end_metrics(r);
  if (cfg.trace) {
    for (std::vector<Metric>* m : {&metrics, &r.layers}) {
      m->push_back({"host.triad_gbs", host.triad_gbs, "GB/s"});
      m->push_back({"host.llc_mb", host.llc_mb, "MB"});
    }
    print_metrics("layer", r.layers);
  }
  print_metrics("metric", metrics);
  const std::string path = write_result_files(cfg, r, metrics, host);
  if (path.empty()) r.errors.push_back("cannot write result files");
  else std::printf("result file: %s\n", path.c_str());
  for (const std::string& e : r.errors) std::printf("error: %s\n", e.c_str());
  const bool correct = r.failed == 0 && r.errors.empty() && r.attempted > 0;
  std::printf("%s\n", result_line(correct, r.attempted, r.failed, metrics).c_str());
  return correct ? 0 : 1;
}

/// Runs this binary on one workload in a child process, echoing its
/// output; returns the exit status and the last output line.
int run_child(const std::vector<std::string>& args, std::string& last_line) {
  int fds[2];
  if (pipe(fds) != 0) return -1;
  const pid_t pid = fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    execv("/proc/self/exe", argv.data());
    _exit(127);
  }
  close(fds[1]);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) {
    std::fwrite(buf, 1, std::size_t(n), stdout);
    out.append(buf, std::size_t(n));
  }
  close(fds[0]);
  std::fflush(stdout);
  int status = 0;
  waitpid(pid, &status, 0);
  while (!out.empty() && out.back() == '\n') out.pop_back();
  last_line = out.substr(out.find_last_of('\n') + 1);
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
}

int run_all(const Cli& cli) {
  const Config& cfg = cli.cfg;
  obs::JsonValue benchmark;
  std::string err;
  if (cfg.smoke && !read_json_file(cli.benchmark, benchmark, &err)) {
    std::fprintf(stderr, "columbia_bench: %s\n", err.c_str());
    return 2;
  }
  std::vector<bool> passes{cfg.trace};
  if (cfg.smoke) passes = {false, true};
  std::vector<std::string> failures;
  for (const bool traced : passes)
    for (const std::string& w : workload_names()) {
      std::vector<std::string> args{
          "columbia_bench", "--workload", w,
          "--seed", std::to_string(cfg.seed),
          "--seconds", std::to_string(cfg.seconds),
          "--trace", traced ? "1" : "0",
          "--out", cfg.out_dir,
          "--refs", cfg.refs_path};
      if (cfg.smoke) args.push_back("--smoke");
      if (cli.record_refs) args.push_back("--record-refs");
      std::string line;
      const int rc = run_child(args, line);
      const std::string tag = w + (traced ? " (traced)" : "");
      obs::JsonValue parsed;
      if (!obs::parse_json(line, parsed, &err)) {
        failures.push_back(tag + ": unparsable result line: " + err);
        continue;
      }
      if (rc != 0) failures.push_back(tag + ": exit code " + std::to_string(rc));
      if (cfg.smoke) {
        std::vector<std::string> errors;
        validate_result_line(parsed, traced, benchmark, errors);
        for (const std::string& e : errors) failures.push_back(tag + ": " + e);
      }
    }
  for (const std::string& f : failures) std::printf("FAIL %s\n", f.c_str());
  std::printf("columbia_bench --all: %zu workload runs, %zu failures\n",
              passes.size() * workload_names().size(), failures.size());
  return failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  if (!parse(argc, argv, cli)) {
    usage();
    return 2;
  }
  if (!cli.compare_a.empty())
    return compare_dirs(cli.compare_a, cli.compare_b, cli.benchmark);
  if (cli.all) return run_all(cli);
  bool known = false;
  for (const std::string& w : workload_names()) known = known || w == cli.cfg.workload;
  if (!known) {
    usage();
    return 2;
  }
  return run_one(cli);
}
