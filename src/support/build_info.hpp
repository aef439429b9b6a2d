// Build/run provenance stamped into every machine-readable report so a
// baseline JSON and a fresh measurement can be compared meaningfully: a
// regression verdict is only as good as the knowledge that both runs came
// from comparable builds and thread configurations.
#pragma once

#include <string>

namespace columbia {

struct BuildInfo {
  std::string git_sha;     // short SHA at configure time ("unknown" outside git)
  std::string build_type;  // CMAKE_BUILD_TYPE ("Release", "RelWithDebInfo", ...)
};

/// Provenance of this binary, captured at CMake configure time.
const BuildInfo& build_info();

/// Hardware threads visible to this process (0 when unknown).
unsigned hardware_threads();

}  // namespace columbia
