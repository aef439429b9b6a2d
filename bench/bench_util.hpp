// Shared fixtures for the figure-reproduction benchmarks.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "cartesian/coarsen.hpp"
#include "core/params.hpp"
#include "mesh/builders.hpp"
#include "nsu3d/solver.hpp"
#include "perf/loads.hpp"
#include "support/table.hpp"

namespace columbia::bench {

/// Shared machine-readable output for every bench harness. Pass
/// `--json PATH` to any fig*/sec*/ablation binary and its tables are
/// mirrored to one JSON document:
///
///   {"bench": <name>, "meta": {...}, "tables": {<series>: [<row obj>...]}}
///
/// Rows are objects keyed by the table header; cells that parse fully as
/// numbers are emitted as numbers, everything else as strings. Without
/// `--json` the reporter is inert. The document is written on destruction.
class Reporter {
 public:
  Reporter(int argc, char** argv, std::string name);
  ~Reporter();

  Reporter(const Reporter&) = delete;
  Reporter& operator=(const Reporter&) = delete;

  /// True when `--json PATH` was given (tables are being captured).
  bool active() const { return !path_.empty(); }

  /// Adds a scalar to the "meta" object (numbers stay numbers).
  void meta(const std::string& key, double value);
  void meta(const std::string& key, const std::string& value);

  /// Captures `t` under `series` in the "tables" object.
  void table(const std::string& series, const Table& t);

 private:
  struct MetaEntry {
    std::string key;
    bool is_number = false;
    double number = 0;
    std::string text;
  };
  std::string name_;
  std::string path_;
  std::vector<MetaEntry> meta_;
  std::vector<std::pair<std::string, Table>> tables_;
};

/// The NSU3D scalability fixture: a hybrid wing mesh with a full
/// agglomeration hierarchy, plus the granularity-matched load model scaled
/// to the paper's 72-million-point problem.
struct Nsu3dFixture {
  mesh::UnstructuredMesh mesh;
  std::vector<nsu3d::Level> levels;
  real_t scale = 1;  // to 72M points

  static Nsu3dFixture make(int max_levels = 6);
  perf::Nsu3dLoadModel load_model() const {
    return perf::Nsu3dLoadModel(levels, scale);
  }
};

/// The Cart3D scalability fixture: adapted cut-cell mesh around the SSLV
/// assembly with its SFC-coarsened hierarchy, scaled to 25M cells.
struct Cart3dFixture {
  cartesian::CartMesh mesh;
  cartesian::CartHierarchy hierarchy;
  real_t scale = 1;  // to 25M cells

  static Cart3dFixture make(int mg_levels = 4);
  perf::Cart3dLoadModel load_model() const {
    return perf::Cart3dLoadModel(hierarchy, scale);
  }
};

/// The paper's CPU-count series for the NSU3D studies.
std::vector<index_t> nsu3d_cpu_series();
/// ... and for the Cart3D studies (Figs. 20-22).
std::vector<index_t> cart3d_cpu_series();

/// Prints the standard benchmark banner.
void banner(const std::string& figure, const std::string& what);

/// Shared harness for Figs. 16-19: speedup vs CPUs for NUMAlink and
/// InfiniBand with 1 and 2 OpenMP threads per MPI process, for an n-level
/// multigrid built from `first_level` (0 = include the finest grid).
/// The InfiniBand 1-thread column is capped by eq. (1) at 1524 processes.
/// When `rep` is non-null the table is also captured under `series`.
void print_interconnect_series(perf::Nsu3dLoadModel& lm, int use_levels,
                               int first_level = 0, Reporter* rep = nullptr,
                               const std::string& series = "speedup");

}  // namespace columbia::bench
