// Observability layer: span buffers, metrics registry, JSON writer, and
// exporter schemas. The concurrency tests (many threads recording spans
// and bumping counters at once) carry the tsan label together with the
// rest of this binary — run under -DCOLUMBIA_SANITIZE=thread to check the
// lock-free buffer publication.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/shard.hpp"
#include "smp/pool.hpp"

namespace columbia {
namespace {

/// Minimal recursive-descent JSON validator — enough to assert that the
/// exporters emit well-formed documents without adding a parser
/// dependency. Returns true iff `s` is exactly one valid JSON value.
class JsonValidator {
 public:
  static bool valid(const std::string& s) {
    JsonValidator v(s);
    v.skip_ws();
    if (!v.value()) return false;
    v.skip_ws();
    return v.p_ == s.size();
  }

 private:
  explicit JsonValidator(const std::string& s) : s_(s) {}

  bool value() {
    if (p_ >= s_.size()) return false;
    switch (s_[p_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++p_;  // '{'
    skip_ws();
    if (peek() == '}') { ++p_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++p_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++p_; continue; }
      if (peek() == '}') { ++p_; return true; }
      return false;
    }
  }
  bool array() {
    ++p_;  // '['
    skip_ws();
    if (peek() == ']') { ++p_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++p_; continue; }
      if (peek() == ']') { ++p_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++p_;
    while (p_ < s_.size() && s_[p_] != '"') {
      if (s_[p_] == '\\') ++p_;
      ++p_;
    }
    if (p_ >= s_.size()) return false;
    ++p_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = p_;
    if (peek() == '-') ++p_;
    while (p_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[p_])) ||
            s_[p_] == '.' || s_[p_] == 'e' || s_[p_] == 'E' ||
            s_[p_] == '+' || s_[p_] == '-'))
      ++p_;
    return p_ > start;
  }
  bool literal(const char* lit) {
    const std::string l(lit);
    if (s_.compare(p_, l.size(), l) != 0) return false;
    p_ += l.size();
    return true;
  }
  char peek() const { return p_ < s_.size() ? s_[p_] : '\0'; }
  void skip_ws() {
    while (p_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[p_])))
      ++p_;
  }

  const std::string& s_;
  std::size_t p_ = 0;
};

/// Restores a clean observability state when a test exits.
struct ObsGuard {
  ~ObsGuard() {
    obs::set_enabled(false);
    obs::reset_trace();
    obs::reset_metrics();
    smp::set_global_threads(1);
  }
};

TEST(JsonWriterTest, NestedDocumentWellFormed) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.kv("name", "a \"quoted\"\nvalue");
  w.kv("count", std::uint64_t(42));
  w.kv("pi", 3.14159);
  w.kv("bad", std::nan(""));  // non-finite -> null
  w.key("list");
  w.begin_array();
  w.value(1);
  w.value("two");
  w.begin_object();
  w.kv("ok", true);
  w.end_object();
  w.end_array();
  w.end_object();
  const std::string doc = os.str();
  EXPECT_TRUE(JsonValidator::valid(doc)) << doc;
  EXPECT_NE(doc.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(doc.find("\"bad\":null"), std::string::npos);
}

TEST(JsonWriterTest, EscapeControlCharacters) {
  EXPECT_EQ(obs::JsonWriter::escape(std::string("a\tb\x01")), "a\\tb\\u0001");
}

TEST(ObsTest, DisabledByDefault) {
  // The runtime flag defaults to off (unless COLUMBIA_TRACE is set, which
  // the test environment does not do), and recording while disabled is a
  // no-op.
  EXPECT_FALSE(obs::enabled());
  obs::reset_trace();
  {
    OBS_SPAN("obs_test.disabled");
    OBS_COUNT("obs_test.disabled", 1);
  }
  EXPECT_EQ(obs::num_trace_events(), 0u);
}

TEST(ObsTest, SpanRecordingAndSnapshot) {
  ObsGuard guard;
  obs::reset_trace();
  obs::set_enabled(true);
  {
    OBS_SPAN("obs_test.outer", "level", 3);
    OBS_SPAN("obs_test.inner");
  }
  ASSERT_EQ(obs::num_trace_events(), 4u);
  const auto events = obs::trace_snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(std::string(events[0].name), "obs_test.outer");
  EXPECT_EQ(events[0].phase, 'B');
  ASSERT_EQ(events[0].nargs, 1);
  EXPECT_EQ(std::string(events[0].args[0].name), "level");
  EXPECT_EQ(events[0].args[0].value, 3);
  EXPECT_EQ(events[0].arg_or("level", -1), 3);
  EXPECT_EQ(events[0].arg_or("rank", -1), -1);
  // Destruction order closes inner before outer.
  EXPECT_EQ(std::string(events[2].name), "obs_test.inner");
  EXPECT_EQ(events[2].phase, 'E');
  EXPECT_EQ(std::string(events[3].name), "obs_test.outer");
  EXPECT_EQ(events[3].phase, 'E');
}

TEST(ObsTest, SpanCloseIsIdempotent) {
  ObsGuard guard;
  obs::reset_trace();
  obs::set_enabled(true);
  {
    obs::SpanGuard span("obs_test.close");
    span.close();
    span.close();  // second close records nothing
  }                // destructor records nothing either
  EXPECT_EQ(obs::num_trace_events(), 2u);
}

TEST(ObsTest, SpanClosesWhenDisabledMidSpan) {
  ObsGuard guard;
  obs::reset_trace();
  obs::set_enabled(true);
  {
    OBS_SPAN("obs_test.mid");
    obs::set_enabled(false);
  }  // the end event still pairs with the begin
  const auto events = obs::trace_snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].phase, 'B');
  EXPECT_EQ(events[1].phase, 'E');
}

TEST(ObsTest, ChromeTraceExportParsesAndBalances) {
  ObsGuard guard;
  obs::reset_trace();
  obs::set_enabled(true);
  constexpr int kThreads = 8;
  constexpr int kSpans = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([] {
      for (int i = 0; i < kSpans; ++i) {
        OBS_SPAN("obs_test.worker", "i", i);
        OBS_SPAN("obs_test.nested");
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(obs::num_trace_events(), std::size_t(kThreads) * kSpans * 4);

  std::ostringstream os;
  obs::write_merged_chrome_trace(os, obs::merge_shards({obs::live_shard()}));
  EXPECT_TRUE(JsonValidator::valid(os.str()));
  EXPECT_NE(os.str().find("\"traceEvents\""), std::string::npos);

  // Balanced, properly nested begin/end per thread.
  std::map<std::uint32_t, int> depth;
  for (const obs::TraceEvent& e : obs::trace_snapshot()) {
    if (e.phase == 'B') ++depth[e.tid];
    if (e.phase == 'E') {
      --depth[e.tid];
      ASSERT_GE(depth[e.tid], 0);
    }
  }
  for (const auto& [tid, d] : depth) EXPECT_EQ(d, 0) << "tid " << tid;
}

TEST(ObsTest, CountersConcurrent) {
  ObsGuard guard;
  obs::set_enabled(true);
  obs::Counter& c = obs::counter("obs_test.concurrent");
  c.reset();
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.add(1);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), std::uint64_t(kThreads) * kAdds);
  // Same entry on every lookup.
  EXPECT_EQ(&obs::counter("obs_test.concurrent"), &c);
}

TEST(ObsTest, CounterGatedByRuntimeFlag) {
  ObsGuard guard;
  obs::set_enabled(true);
  obs::Counter& c = obs::counter("obs_test.gated");
  c.reset();
  c.add(5);
  obs::set_enabled(false);
  c.add(7);  // ignored
  EXPECT_EQ(c.value(), 5u);
}

TEST(ObsTest, MetricsJsonExportParses) {
  ObsGuard guard;
  obs::set_enabled(true);
  obs::counter("obs_test.export.c").add(3);
  obs::gauge("obs_test.export.g").set(-7);
  std::ostringstream os;
  obs::write_metrics_json(os);
  const std::string doc = os.str();
  EXPECT_TRUE(JsonValidator::valid(doc)) << doc;
  EXPECT_NE(doc.find("\"obs_test.export.c\":3"), std::string::npos);
  EXPECT_NE(doc.find("\"obs_test.export.g\":-7"), std::string::npos);
}

TEST(ObsTest, PoolPublishesThreadStats) {
  ObsGuard guard;
  obs::set_enabled(true);
  smp::ThreadPool& pool = smp::ThreadPool::global();
  smp::set_global_threads(4);
  pool.reset_stats();
  std::vector<int> data(4096, 0);
  pool.parallel_for(0, data.size(), 64,
                    [&](std::size_t b, std::size_t e, int) {
                      for (std::size_t i = b; i < e; ++i) data[i] = 1;
                    });
  const auto stats = pool.thread_stats();
  ASSERT_EQ(stats.size(), 4u);
  std::uint64_t total_chunks = 0;
  for (const auto& s : stats) total_chunks += s.chunks;
  EXPECT_EQ(total_chunks, 4096u / 64u);
  pool.publish_stats();
  EXPECT_EQ(obs::gauge("pool.threads").value(), 4);
  std::uint64_t published = 0;
  for (int t = 0; t < 4; ++t)
    published += std::uint64_t(
        obs::gauge("pool.thread" + std::to_string(t) + ".chunks").value());
  EXPECT_EQ(published, total_chunks);
}

TEST(ObsTest, ResetTraceKeepsBuffersValid) {
  ObsGuard guard;
  obs::reset_trace();
  obs::set_enabled(true);
  { OBS_SPAN("obs_test.first"); }
  EXPECT_EQ(obs::num_trace_events(), 2u);
  obs::reset_trace();
  EXPECT_EQ(obs::num_trace_events(), 0u);
  { OBS_SPAN("obs_test.second"); }  // same thread-local buffer, reused
  EXPECT_EQ(obs::num_trace_events(), 2u);
  EXPECT_EQ(std::string(obs::trace_snapshot()[0].name), "obs_test.second");
}

}  // namespace
}  // namespace columbia
