#include "obs/metrics.hpp"

#include <map>
#include <memory>
#include <mutex>
#include <ostream>

#include "obs/json.hpp"

namespace columbia::obs {

namespace {

/// unique_ptr values keep metric addresses stable across rehashes.
struct MetricsRegistry {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
};

MetricsRegistry& registry() {
  static MetricsRegistry* reg = new MetricsRegistry;  // outlives static dtors
  return *reg;
}

template <class T>
T& lookup(std::map<std::string, std::unique_ptr<T>>& m, std::mutex& mu,
          const std::string& name) {
  std::lock_guard<std::mutex> lock(mu);
  std::unique_ptr<T>& slot = m[name];
  if (!slot) slot = std::make_unique<T>();
  return *slot;
}

}  // namespace

Counter& counter(const std::string& name) {
  MetricsRegistry& reg = registry();
  return lookup(reg.counters, reg.mu, name);
}

Gauge& gauge(const std::string& name) {
  MetricsRegistry& reg = registry();
  return lookup(reg.gauges, reg.mu, name);
}

void reset_metrics() {
  MetricsRegistry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (auto& [_, c] : reg.counters) c->reset();
  for (auto& [_, g] : reg.gauges) g->reset();
}

MetricsSnapshot metrics_snapshot() {
  MetricsRegistry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  MetricsSnapshot s;
  for (const auto& [name, c] : reg.counters) s.counters[name] = c->value();
  for (const auto& [name, g] : reg.gauges) s.gauges[name] = g->value();
  return s;
}

void write_metrics_into(JsonWriter& w, const MetricsSnapshot& s) {
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, v] : s.counters) w.kv(name, v);
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, v] : s.gauges) w.kv(name, v);
  w.end_object();
  w.end_object();
}

void write_metrics_json(std::ostream& os) {
  JsonWriter w(os);
  write_metrics_into(w, metrics_snapshot());
  os << '\n';
}

}  // namespace columbia::obs
