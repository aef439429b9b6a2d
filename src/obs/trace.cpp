#include "obs/trace.hpp"

#include <array>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string_view>

#include "support/timer.hpp"

namespace columbia::obs {

std::int64_t TraceEvent::arg_or(const char* key, std::int64_t fallback) const {
  for (int i = 0; i < nargs; ++i) {
    const char* a = args[i].name;
    if (a != nullptr && std::string_view(a) == key) return args[i].value;
  }
  return fallback;
}

namespace {

bool env_enabled() {
  const char* s = std::getenv("COLUMBIA_TRACE");
  return s != nullptr && std::atoi(s) != 0;
}

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{env_enabled()};
  return flag;
}

/// Append-only event buffer owned by one writer thread. Slots below the
/// published count are immutable; the release store on publish pairs with
/// the reader's acquire load, so snapshots are race-free without locking
/// the hot path. Chunks are never freed or moved once allocated.
class ThreadBuffer {
 public:
  static constexpr std::size_t kChunkSize = 4096;

  void push(const TraceEvent& e) {
    const std::size_t n = count_.load(std::memory_order_relaxed);
    const std::size_t chunk = n / kChunkSize;
    if (chunk >= chunks_.size()) {
      // Rare (every kChunkSize events). The lock only orders the vector
      // growth against concurrent snapshot() readers; the owning thread is
      // the sole writer of chunks_.
      std::lock_guard<std::mutex> lock(chunks_mu_);
      chunks_.push_back(std::make_unique<Chunk>());
    }
    chunks_[chunk]->ev[n % kChunkSize] = e;
    count_.store(n + 1, std::memory_order_release);
  }

  std::size_t count() const { return count_.load(std::memory_order_acquire); }

  void snapshot(std::vector<TraceEvent>& out, std::uint32_t tid) const {
    std::lock_guard<std::mutex> lock(chunks_mu_);
    const std::size_t n = count_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      TraceEvent e = chunks_[i / kChunkSize]->ev[i % kChunkSize];
      e.tid = tid;
      out.push_back(e);
    }
  }

  void reset() { count_.store(0, std::memory_order_release); }

 private:
  struct Chunk {
    std::array<TraceEvent, kChunkSize> ev;
  };
  std::vector<std::unique_ptr<Chunk>> chunks_;
  mutable std::mutex chunks_mu_;
  std::atomic<std::size_t> count_{0};
};

struct Registry {
  std::mutex mu;
  // Buffers are registered once per recording thread and never removed:
  // thread_local pointers into this list must stay valid after the thread
  // exits (pool resizes join and respawn workers).
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::vector<CycleRecord> records;
};

Registry& registry() {
  static Registry* reg = new Registry;  // leaked: outlives static dtors
  return *reg;
}

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buf = nullptr;
  if (buf == nullptr) {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.buffers.push_back(std::make_unique<ThreadBuffer>());
    buf = reg.buffers.back().get();
  }
  return *buf;
}

std::uint64_t epoch_ns() {
  static const std::uint64_t epoch = WallTimer::now_ns();
  return epoch;
}

}  // namespace

bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  epoch_ns();  // pin the epoch no later than the first enable
  enabled_flag().store(on, std::memory_order_relaxed);
}

void record_span_event(const char* name, char phase, const SpanArg* args,
                       int nargs) {
  TraceEvent e;
  e.name = name;
  e.nargs = nargs < kMaxSpanArgs ? nargs : kMaxSpanArgs;
  for (int i = 0; i < e.nargs; ++i) e.args[i] = args[i];
  e.ts_ns = WallTimer::now_ns();
  e.phase = phase;
  local_buffer().push(e);
}

std::uint64_t trace_epoch_ns() { return epoch_ns(); }

std::size_t num_trace_events() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::size_t total = 0;
  for (const auto& b : reg.buffers) total += b->count();
  return total;
}

std::vector<TraceEvent> trace_snapshot() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<TraceEvent> out;
  for (std::size_t t = 0; t < reg.buffers.size(); ++t)
    reg.buffers[t]->snapshot(out, std::uint32_t(t));
  return out;
}

void emit_cycle(const CycleRecord& rec) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.records.push_back(rec);
}

std::vector<CycleRecord> cycle_records() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  return reg.records;
}

void reset_trace() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (auto& b : reg.buffers) b->reset();
  reg.records.clear();
}

}  // namespace columbia::obs
