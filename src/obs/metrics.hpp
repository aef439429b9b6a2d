// Process-wide metrics registry: named counters and gauges, backed by
// relaxed atomics so hot paths pay one atomic add when observability is
// enabled and a branch when it is not.
//
// Registry entries are created on first lookup and never removed, so
// references returned by counter()/gauge() stay valid for the process
// lifetime — cache them at call sites:
//
//   static obs::Counter& c = obs::counter("resil.halo.retransmits");
//   c.add(1);
//
// reset_metrics() zeroes values but keeps the entries (and references).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "obs/trace.hpp"  // enabled()

namespace columbia::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (enabled()) v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  /// Unconditional (gauges record configuration, not hot-path traffic).
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Registry lookups (create-on-first-use; stable references).
Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);

/// Zeroes every registered metric (entries and references survive).
void reset_metrics();

/// Every registered metric's value at one instant, by name.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
};
MetricsSnapshot metrics_snapshot();

class JsonWriter;

/// The one JSON spelling of a snapshot, written as the value at the
/// writer's position: {"counters": {name: value, ...}, "gauges": {...}}.
void write_metrics_into(JsonWriter& w, const MetricsSnapshot& s);

/// Dumps the whole registry as one JSON document (write_metrics_into of
/// a fresh snapshot, newline-terminated).
void write_metrics_json(std::ostream& os);

}  // namespace columbia::obs
