// Umbrella header for the observability layer (spans and cycle records,
// metrics registry, phase profiles) plus the instrumentation macros used
// in the hot layers.
//
// Compile-time switch: configure with -DCOLUMBIA_OBS=OFF to compile every
// span and counter out entirely (the API surface remains and exporters
// produce empty documents). Runtime switch: obs::set_enabled(true) or the
// COLUMBIA_TRACE=1 environment variable; disabled by default, in which
// case an instrumented hot path costs one relaxed atomic load.
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
/// call site, and only after observability is first enabled; disabled or
/// compiled-out builds pay a branch at most.
#define OBS_COUNT(name_literal, n)                             \
  do {                                                         \
    if (::columbia::obs::enabled()) {                          \
      static ::columbia::obs::Counter& obs_count_counter_ =    \
          ::columbia::obs::counter(name_literal);              \
      obs_count_counter_.add(std::uint64_t(n));                \
    }                                                          \
  } while (0)
