// Wall-clock timer for benchmark harnesses and the span recorder.
#pragma once

#include <chrono>
#include <cstdint>

namespace columbia {

class WallTimer {
 public:
  WallTimer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  /// Monotonic tick, in nanoseconds since an arbitrary process-stable
  /// epoch. The raw unit consumed by the obs span recorder; subtract two
  /// ticks for an interval.
  static std::uint64_t now_ns() {
    return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             clock::now().time_since_epoch())
                             .count());
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace columbia
