#include "smp/pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>

#include "obs/obs.hpp"
#include "support/assert.hpp"
#include "support/timer.hpp"

namespace columbia::smp {

namespace {

// Job word layout: generation in the high 32 bits, next unclaimed chunk
// in the low 32. A chunk field of kClosed marks a word whose descriptor
// is about to be rewritten.
constexpr std::uint64_t kChunkMask = 0xffffffffu;
constexpr std::uint64_t kClosed = kChunkMask;

/// How long an idle worker spins on the job word before parking. Long
/// enough to bridge the serial stretches between the jobs of one
/// multigrid cycle (transfers, strong boundary conditions), short enough
/// that a serial phase such as mesh set-up finds the workers asleep.
constexpr std::uint64_t kSpinWindowNs = 200'000;

std::uint64_t gen_of(std::uint64_t w) { return w >> 32; }
std::uint64_t chunk_of(std::uint64_t w) { return w & kChunkMask; }

/// Spin-wait step: pause for the first rounds, then yield, so a host with
/// more runnable threads than cores still schedules the threads that have
/// work. (Measured with two busy-loop processes beside a 4-thread pool on
/// 4 cores: a pause-only idle spin made the wing cycle 25 % slower than a
/// mutex pool; the yielding spin made it 30 % faster.)
class Backoff {
 public:
  void pause() {
    if (rounds_ < 64) {
      ++rounds_;
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#elif defined(__aarch64__)
      asm volatile("yield");
#endif
    } else {
      std::this_thread::yield();
    }
  }

 private:
  int rounds_ = 0;
};

/// One job at a time; nested or concurrent parallel regions fall back to
/// the inline serial path (well-defined from any thread, unlike a
/// recursive try_lock).
std::atomic_flag g_busy = ATOMIC_FLAG_INIT;

}  // namespace

int env_threads() {
  if (const char* s = std::getenv("COLUMBIA_THREADS")) {
    const int n = std::atoi(s);
    if (n >= 1) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? int(hw) : 1;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void set_global_threads(int num_threads) {
  ThreadPool::global().resize(num_threads);
}

ThreadPool::ThreadPool(int num_threads) {
  COLUMBIA_REQUIRE(num_threads >= 1);
  num_threads_ = num_threads;
  stats_ = std::make_unique<AtomicThreadStats[]>(std::size_t(num_threads_));
  start_workers();
}

ThreadPool::~ThreadPool() { stop_workers(); }

void ThreadPool::start_workers() {
  workers_.reserve(std::size_t(num_threads_) - 1);
  for (int t = 1; t < num_threads_; ++t)
    workers_.emplace_back([this, t] { worker_loop(t); });
}

void ThreadPool::stop_workers() {
  stopping_.store(true);
  {
    // Taking the mutex orders the flag before any parked worker's
    // predicate check.
    std::lock_guard<std::mutex> lock(mu_);
  }
  park_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
  stopping_.store(false);
}

void ThreadPool::resize(int num_threads) {
  COLUMBIA_REQUIRE(num_threads >= 1);
  if (num_threads == num_threads_) return;
  stop_workers();
  num_threads_ = num_threads;
  stats_ = std::make_unique<AtomicThreadStats[]>(std::size_t(num_threads_));
  start_workers();
}

std::vector<ThreadPool::ThreadStats> ThreadPool::thread_stats() const {
  std::vector<ThreadStats> out(static_cast<std::size_t>(num_threads_));
  for (int t = 0; t < num_threads_; ++t) {
    out[std::size_t(t)].chunks = stats_[t].chunks.load(std::memory_order_relaxed);
    out[std::size_t(t)].busy_ns =
        stats_[t].busy_ns.load(std::memory_order_relaxed);
  }
  return out;
}

void ThreadPool::reset_stats() {
  for (int t = 0; t < num_threads_; ++t) {
    stats_[t].chunks.store(0, std::memory_order_relaxed);
    stats_[t].busy_ns.store(0, std::memory_order_relaxed);
  }
}

void ThreadPool::publish_stats() const {
  if (!obs::enabled()) return;
  obs::gauge("pool.threads").set(std::uint64_t(num_threads_));
  const std::vector<ThreadStats> snap = thread_stats();
  for (int t = 0; t < num_threads_; ++t) {
    const std::string prefix = "pool.thread" + std::to_string(t);
    obs::gauge(prefix + ".chunks").set(snap[std::size_t(t)].chunks);
    obs::gauge(prefix + ".busy_ns").set(snap[std::size_t(t)].busy_ns);
  }
}

void ThreadPool::worker_loop(int tid) {
  std::uint64_t seen = gen_of(word_.load(std::memory_order_acquire));
  while (true) {
    // Spin for the next generation for a bounded window, then park.
    std::uint64_t w = word_.load(std::memory_order_acquire);
    if (gen_of(w) == seen) {
      const std::uint64_t t0 = WallTimer::now_ns();
      Backoff idle;
      for (unsigned k = 1;; ++k) {
        idle.pause();
        w = word_.load(std::memory_order_acquire);
        if (gen_of(w) != seen || stopping_.load(std::memory_order_relaxed))
          break;
        if (k % 64 == 0 && WallTimer::now_ns() - t0 > kSpinWindowNs) {
          std::unique_lock<std::mutex> lock(mu_);
          // parked_ before the word re-check, seq_cst on both sides: the
          // publisher stores the word before it reads parked_, so either
          // it sees this worker parked and notifies, or this re-check
          // sees its new generation.
          parked_.fetch_add(1);
          park_cv_.wait(lock, [&] {
            w = word_.load();
            return gen_of(w) != seen || stopping_.load();
          });
          parked_.fetch_sub(1);
          break;
        }
      }
    }
    if (stopping_.load()) return;
    seen = gen_of(w);
    // Register before re-reading the word: once in flight, the publisher
    // cannot rewrite the descriptor under us. A closed or newer word
    // means this job is already over.
    inflight_.fetch_add(1);
    w = word_.load();
    if (gen_of(w) == seen && chunk_of(w) != kClosed) {
      const Job job = job_;
      work_chunks(job, seen, tid);
    }
    inflight_.fetch_sub(1, std::memory_order_release);
  }
}

void ThreadPool::work_chunks(const Job& job, std::uint64_t gen, int tid) {
  // Utilization accounting is gated on the runtime obs flag so the
  // tracing-off path costs one relaxed load per job. A chunk's stats land
  // before its done_ increment, so the caller reads complete stats once
  // the job returns.
  const bool timed = obs::enabled();
  std::uint64_t w = word_.load(std::memory_order_relaxed);
  while (gen_of(w) == gen && chunk_of(w) < job.num_chunks) {
    // The CAS only succeeds on (gen, c): a chunk is claimed exactly once,
    // and never across generations.
    if (!word_.compare_exchange_weak(w, w + 1, std::memory_order_acq_rel,
                                     std::memory_order_relaxed))
      continue;
    const std::size_t b = job.begin + std::size_t(chunk_of(w)) * job.grain;
    const std::size_t e = std::min(job.end, b + job.grain);
    if (timed) {
      const std::uint64_t t0 = WallTimer::now_ns();
      job.fn(b, e, tid);
      stats_[tid].busy_ns.fetch_add(WallTimer::now_ns() - t0,
                                    std::memory_order_relaxed);
      stats_[tid].chunks.fetch_add(1, std::memory_order_relaxed);
    } else {
      job.fn(b, e, tid);
    }
    done_.fetch_add(1, std::memory_order_release);
    ++w;  // the expected next word; a failed CAS reloads it
  }
}

void ThreadPool::run_job(RangeFn fn, std::size_t begin, std::size_t end,
                         std::size_t grain, std::size_t chunks) {
  OBS_COUNT("pool.jobs", 1);
  COLUMBIA_REQUIRE(chunks < kClosed);
  // Close the word so no worker starts reading the descriptor, then wait
  // out the ones still reading it (seq_cst pairs with the workers'
  // register-then-reread).
  const std::uint64_t gen = gen_of(word_.load(std::memory_order_relaxed));
  word_.store((gen << 32) | kClosed);
  Backoff drain;
  while (inflight_.load() != 0) drain.pause();

  job_ = Job{fn, begin, end, grain, chunks};
  done_.store(0, std::memory_order_relaxed);
  const std::uint64_t next = (gen + 1) & kChunkMask;
  word_.store(next << 32);  // publishes the descriptor (release)
  if (parked_.load() > 0) {
    { std::lock_guard<std::mutex> lock(mu_); }
    park_cv_.notify_all();
  }

  work_chunks(job_, next, 0);  // the caller participates
  Backoff wait;
  while (done_.load(std::memory_order_acquire) != chunks) wait.pause();
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              std::size_t grain, RangeFn fn) {
  if (end <= begin) return;
  grain = std::max<std::size_t>(1, grain);
  if (num_threads_ == 1 || end - begin < 2 * grain ||
      g_busy.test_and_set(std::memory_order_acquire)) {
    fn(begin, end, 0);
    return;
  }
  run_job(fn, begin, end, grain, num_chunks(begin, end, grain));
  g_busy.clear(std::memory_order_release);
}

real_t ThreadPool::reduce_sum(std::size_t begin, std::size_t end,
                              std::size_t grain, ReduceFn fn) {
  if (end <= begin) return 0;
  grain = std::max<std::size_t>(1, grain);
  const std::size_t chunks = num_chunks(begin, end, grain);
  // Identical chunking on every path keeps the combine order — and thus
  // the rounding — independent of the thread count: the serial path adds
  // each chunk's partial as it goes, the pooled path stores the partials
  // and adds them in the same order.
  real_t sum = 0;
  if (num_threads_ == 1 || chunks == 1 ||
      g_busy.test_and_set(std::memory_order_acquire)) {
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t b = begin + c * grain;
      sum += fn(b, std::min(end, b + grain));
    }
    return sum;
  }
  if (partials_.size() < chunks) partials_.resize(chunks);
  real_t* const partial = partials_.data();
  run_job(
      [&](std::size_t b, std::size_t e, int) {
        partial[(b - begin) / grain] = fn(b, e);
      },
      begin, end, grain, chunks);
  // Combine before releasing the pool: the next caller's job reuses (and
  // may reallocate) partials_.
  for (std::size_t c = 0; c < chunks; ++c) sum += partial[c];
  g_busy.clear(std::memory_order_release);
  return sum;
}

}  // namespace columbia::smp
