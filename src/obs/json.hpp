// Minimal streaming JSON writer shared by every machine-readable output in
// the repo: Chrome trace export, telemetry shards, the metrics registry
// dump, and the bench harnesses' --json reports.
//
// The writer tracks the container stack and inserts commas itself, so call
// sites read like the document they produce. Doubles are emitted with
// enough digits to round-trip ("%.17g" would be noisy; "%.10g" keeps bench
// series diffable while exceeding every consumer's needs).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace columbia::obs {

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Key of the next value inside an object.
  JsonWriter& key(const std::string& k);

  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v);
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(std::int64_t(v)); }
  JsonWriter& value(bool v);

  /// key + value in one call.
  template <class T>
  JsonWriter& kv(const std::string& k, const T& v) {
    key(k);
    return value(v);
  }

  /// Escapes `s` per RFC 8259 (quotes, backslash, control characters).
  static std::string escape(const std::string& s);

 private:
  void comma();

  std::ostream& os_;
  // One entry per open container: number of items emitted so far; -1 when
  // the next token is a value completing a key.
  std::vector<long> stack_;
  bool pending_key_ = false;
};

}  // namespace columbia::obs
