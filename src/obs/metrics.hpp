// Process-wide metrics registry: named counters, gauges, and log2-bucket
// histograms, all backed by relaxed atomics so hot paths pay one atomic
// add when observability is enabled and a branch when it is not.
//
// Registry entries are created on first lookup and never removed, so
// references returned by counter()/gauge()/histogram() stay valid for the
// process lifetime — cache them at call sites:
//
//   static obs::Counter& c = obs::counter("resil.halo.retransmits");
//   c.add(1);
//
// reset_metrics() zeroes values but keeps the entries (and references).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace.hpp"  // enabled() / kCompiledIn

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

/// Power-of-two bucket histogram of nonnegative integer samples (message
/// bytes, chunk sizes, ...). Bucket 0 holds zeros; bucket i >= 1 holds
/// samples in [2^(i-1), 2^i).
class Histogram {
 public:
  static constexpr int kBuckets = 65;

  void observe(std::uint64_t x) {
    if (!enabled()) return;
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(x, std::memory_order_relaxed);
    buckets_[std::size_t(bucket_of(x))].fetch_add(1,
                                                  std::memory_order_relaxed);
  }

  static int bucket_of(std::uint64_t x) { return std::bit_width(x); }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(int i) const {
    return buckets_[std::size_t(i)].load(std::memory_order_relaxed);
  }
  double mean() const {
    const std::uint64_t n = count();
    return n > 0 ? double(sum()) / double(n) : 0.0;
  }
  void reset();

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/// Registry lookups (create-on-first-use; stable references).
Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);
Histogram& histogram(const std::string& name);

/// Zeroes every registered metric (entries and references survive).
void reset_metrics();

/// Snapshot of registered names, sorted, for reports and tests.
std::vector<std::string> counter_names();
std::vector<std::string> gauge_names();
std::vector<std::string> histogram_names();

/// Dumps the whole registry as one JSON object:
/// {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
/// mean, buckets: [[lo, hi, n], ...nonzero]}}}.
void write_metrics_json(std::ostream& os);

}  // namespace columbia::obs
