// Shared-memory parallel kernel layer: a persistent thread pool driving
// chunked range loops and deterministic tree reductions.
//
// This is the intra-node tier of the paper's hybrid model (Sec. III,
// Fig. 7): on each Altix node NSU3D threads its edge-based loops with
// OpenMP while MPI handles the inter-node tier. Here the same role is
// played by a process-wide pool whose thread count comes from the
// COLUMBIA_THREADS environment variable (default: hardware concurrency;
// 1 selects an exact serial path with zero synchronization).
//
// Dispatch protocol (lock-free on the hot path). A colored edge sweep
// dispatches one job per color, hundreds per multigrid cycle, so a job
// must cost a few atomics, not a mutex per chunk claim and a condvar wake:
//
//  * One atomic job word packs (generation << 32 | next unclaimed chunk).
//    The caller publishes a job by writing the plain descriptor (range,
//    grain, chunk count, function reference) and then storing
//    (generation + 1, 0) with release order. Every thread, the caller
//    included, claims chunk c by a CAS of the word from (g, c) to
//    (g, c + 1), so a chunk is claimed once and a thread still holding a
//    stale generation can never claim a chunk of a newer job.
//  * Finished chunks bump an atomic count; the caller spins on it until
//    every chunk is done, then returns.
//  * Reading the descriptor is race-free: a worker registers in an
//    in-flight count before it re-reads the job word and copies the
//    descriptor, and deregisters when it runs out of chunks. Before the
//    next publish overwrites the descriptor, the caller closes the word
//    (chunk field = kClosed, so a late worker reads nothing) and waits
//    for the in-flight count to drain.
//  * Idle workers spin on the job word for a bounded window
//    (kSpinWindowNs) and then park on a condition variable, so
//    back-to-back jobs of a multigrid cycle find the workers awake while a
//    serial stretch (mesh set-up, I/O) costs no CPU. Spinning waits yield
//    the CPU after a short burst of pauses, so on an oversubscribed host
//    they do not starve the threads that still hold chunks. The publisher
//    takes the mutex and notifies only when a worker is parked.
//
// Determinism contract: chunk boundaries depend only on (n, grain), never
// on the thread count or on which thread claims which chunk, and reduction
// partials are combined in chunk order on the calling thread. Together
// with color-major edge ordering (each color's edges touch disjoint
// nodes, so a node receives at most one contribution per color) every
// solver kernel produces bit-identical results for any thread count.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/types.hpp"

namespace columbia::smp {

/// Thread count requested by the environment: COLUMBIA_THREADS if set and
/// >= 1, else std::thread::hardware_concurrency().
int env_threads();

template <class Sig>
class FunctionRef;

/// Non-owning reference to a callable: an object pointer plus a call
/// thunk. Binding never allocates; the callable must outlive the
/// reference (a lambda passed straight into a pool call lives until the
/// call returns).
template <class R, class... Args>
class FunctionRef<R(Args...)> {
 public:
  /// Empty reference; calling it is undefined.
  FunctionRef() = default;

  template <class F, class = std::enable_if_t<
                         !std::is_same_v<std::decay_t<F>, FunctionRef> &&
                         std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f)  // NOLINT: implicit, like std::function
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* o, Args... a) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(o))(
              std::forward<Args>(a)...);
        }) {}

  R operator()(Args... a) const { return call_(obj_, std::forward<Args>(a)...); }

 private:
  void* obj_ = nullptr;
  R (*call_)(void*, Args...) = nullptr;
};

class ThreadPool {
 public:
  /// Process-wide pool, sized by env_threads() on first use.
  static ThreadPool& global();

  explicit ThreadPool(int num_threads = env_threads());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Re-sizes the pool (joins and respawns workers). Intended for tests
  /// and benchmarks that sweep thread counts; must not be called from
  /// inside a parallel region.
  void resize(int num_threads);

  /// fn(begin, end, tid) over contiguous chunks of [begin, end). `tid` is
  /// the index of the executing thread in [0, num_threads()) — use it to
  /// select per-thread scratch. Chunk boundaries are a pure function of
  /// the range and grain. Serial path, one inline call fn(begin, end, 0):
  /// a 1-thread pool, a range shorter than two full chunks (waking a
  /// worker for a tail chunk costs more than the chunk), and nested or
  /// concurrent calls (a second thread while a job is running).
  using RangeFn = FunctionRef<void(std::size_t, std::size_t, int)>;
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    RangeFn fn);

  /// Deterministic sum-reduction: `fn(begin, end)` returns the partial for
  /// one chunk; partials are combined in ascending chunk order on the
  /// calling thread, so the result is bit-identical for every thread
  /// count (including 1). Allocation-free once the partials buffer has
  /// grown to the largest chunk count seen.
  using ReduceFn = FunctionRef<real_t(std::size_t, std::size_t)>;
  real_t reduce_sum(std::size_t begin, std::size_t end, std::size_t grain,
                    ReduceFn fn);

  /// Per-thread utilization counters, recorded only while obs::enabled()
  /// is on (otherwise the pool pays a branch per job). Reset by resize().
  struct ThreadStats {
    std::uint64_t chunks = 0;   // chunks this thread executed
    std::uint64_t busy_ns = 0;  // wall time spent inside chunk bodies
  };
  std::vector<ThreadStats> thread_stats() const;
  void reset_stats();

  /// Copies the per-thread counters into the obs metrics registry as
  /// gauges pool.thread<k>.chunks / pool.thread<k>.busy_ns plus
  /// pool.threads; call before exporting metrics.
  void publish_stats() const;

 private:
  /// The job descriptor: plain fields, written by the publisher only while
  /// the job word is closed and no worker is in flight (see above).
  struct Job {
    RangeFn fn;
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t grain = 1;
    std::size_t num_chunks = 0;
  };

  void worker_loop(int tid);
  /// Publishes a job, participates in it, and returns once every chunk is
  /// done. Caller must hold the pool's single-job slot.
  void run_job(RangeFn fn, std::size_t begin, std::size_t end,
               std::size_t grain, std::size_t num_chunks);
  /// Claims and runs chunks of generation `gen` until none are left.
  void work_chunks(const Job& job, std::uint64_t gen, int tid);
  void start_workers();
  void stop_workers();

  int num_threads_ = 1;
  std::vector<std::thread> workers_;  // num_threads_ - 1 entries

  /// Cache-line-spaced so per-thread bumps never false-share.
  struct alignas(64) AtomicThreadStats {
    std::atomic<std::uint64_t> chunks{0};
    std::atomic<std::uint64_t> busy_ns{0};
  };
  std::unique_ptr<AtomicThreadStats[]> stats_;  // num_threads_ entries

  // Hot dispatch state, each on its own cache line: the job word every
  // thread CASes, the done count the caller spins on, and the in-flight
  // count the publisher drains.
  alignas(64) std::atomic<std::uint64_t> word_{0};
  alignas(64) std::atomic<std::size_t> done_{0};
  alignas(64) std::atomic<int> inflight_{0};
  alignas(64) Job job_;
  std::vector<real_t> partials_;  // reduce_sum chunk partials (reused)

  // Parking: idle workers past their spin window sleep on park_cv_.
  std::mutex mu_;
  std::condition_variable park_cv_;
  std::atomic<int> parked_{0};
  std::atomic<bool> stopping_{false};
};

/// Convenience: resize the global pool (tests / thread-sweep benchmarks).
void set_global_threads(int num_threads);

/// Chunk count used by the pool for a range: ceil((end-begin)/grain).
inline std::size_t num_chunks(std::size_t begin, std::size_t end,
                              std::size_t grain) {
  const std::size_t n = end - begin;
  return grain == 0 ? 1 : (n + grain - 1) / grain;
}

}  // namespace columbia::smp
