// Umbrella header for the observability layer (spans and cycle records,
// metrics registry, phase profiles) plus the instrumentation macros used
// in the hot layers.
//
// Always compiled in; recording is switched on by obs::set_enabled(true),
// the COLUMBIA_TRACE=1 environment variable or an example's --trace. Off
// by default, in which case an instrumented hot path costs one relaxed
// atomic load. What is recorded is read back only by columbia_report,
// from the trace written by obs::write_trace (obs/shard.hpp).
#pragma once

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

#define COLUMBIA_OBS_CONCAT_IMPL(a, b) a##b
#define COLUMBIA_OBS_CONCAT(a, b) COLUMBIA_OBS_CONCAT_IMPL(a, b)

/// Scoped span: OBS_SPAN("nsu3d.smooth") or
/// OBS_SPAN("nsu3d.smooth", "level", l) for an integer argument shown in
/// the trace viewer.
#define OBS_SPAN(...)                                             \
  ::columbia::obs::SpanGuard COLUMBIA_OBS_CONCAT(obs_span_guard_, \
                                                 __LINE__)(__VA_ARGS__)

/// Bumps the named counter by `n`. The registry lookup resolves once per
/// call site, and only after observability is first enabled; with
/// recording off a call site pays a branch.
#define OBS_COUNT(name_literal, n)                             \
  do {                                                         \
    if (::columbia::obs::enabled()) {                          \
      static ::columbia::obs::Counter& obs_count_counter_ =    \
          ::columbia::obs::counter(name_literal);              \
      obs_count_counter_.add(std::uint64_t(n));                \
    }                                                          \
  } while (0)
