#include "support/build_info.hpp"

#include <thread>

// The definitions come from src/support/CMakeLists.txt (configure-time
// `git rev-parse`); the fallbacks keep non-git tarball builds working.
#ifndef COLUMBIA_GIT_SHA
#define COLUMBIA_GIT_SHA "unknown"
#endif
#ifndef COLUMBIA_BUILD_TYPE
#define COLUMBIA_BUILD_TYPE "unknown"
#endif

namespace columbia {

const BuildInfo& build_info() {
  static const BuildInfo info{COLUMBIA_GIT_SHA, COLUMBIA_BUILD_TYPE};
  return info;
}

unsigned hardware_threads() { return std::thread::hardware_concurrency(); }

}  // namespace columbia
