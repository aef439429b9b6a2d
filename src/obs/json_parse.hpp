// Minimal recursive-descent JSON parser — the read side of obs/json.hpp.
//
// Every machine-readable artifact in this repo (Chrome traces, telemetry
// shards, metrics dumps, bench --json reports) is produced by JsonWriter;
// this parser exists so in-repo tools (tools/columbia_report) and tests
// can consume those documents without an external dependency. It parses
// strict RFC 8259 JSON: objects, arrays, strings (with escapes, including
// \uXXXX and surrogate pairs), numbers, true/false/null. Numbers are held
// as double — exact for every value JsonWriter emits at %.10g and for
// 53-bit integers, which covers all in-repo producers.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace columbia::obs {

class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_object() const { return kind_ == Kind::Object; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_number() const { return kind_ == Kind::Number; }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_bool() const { return kind_ == Kind::Bool; }

  bool boolean() const { return boolean_; }
  double number() const { return number_; }
  const std::string& str() const { return string_; }
  const std::vector<JsonValue>& items() const { return items_; }
  /// Object members in document order (duplicate keys preserved).
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// First member named `key`, or nullptr (also nullptr on non-objects).
  const JsonValue* find(const std::string& key) const;

  /// Typed lookups with defaults, tolerant of missing keys / wrong kinds.
  double number_or(const std::string& key, double dflt) const;
  std::string string_or(const std::string& key, const std::string& dflt) const;

  // Construction (parser and tests).
  static JsonValue null();
  static JsonValue boolean(bool b);
  static JsonValue number(double v);
  static JsonValue string(std::string s);
  static JsonValue array(std::vector<JsonValue> items);
  static JsonValue object(std::vector<std::pair<std::string, JsonValue>> m);

 private:
  Kind kind_ = Kind::Null;
  bool boolean_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parses exactly one JSON value spanning all of `text` (surrounding
/// whitespace allowed). Returns false and fills `error` (when non-null)
/// with "offset N: message" on malformed input.
bool parse_json(const std::string& text, JsonValue& out,
                std::string* error = nullptr);

/// Parses a JSONL document: one JSON value per non-empty line. Stops at
/// the first malformed line, returning the values parsed so far (a
/// truncated tail — e.g. a run killed mid-write — thus degrades to a
/// shorter series, matching the resilience manifest's tolerance).
std::vector<JsonValue> parse_jsonl(const std::string& text,
                                   std::string* error = nullptr);

}  // namespace columbia::obs
