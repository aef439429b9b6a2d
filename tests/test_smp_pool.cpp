#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "smp/pool.hpp"
#include "support/random.hpp"

namespace columbia::smp {
namespace {

TEST(Pool, EnvThreadsAtLeastOne) { EXPECT_GE(env_threads(), 1); }

TEST(Pool, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  // Chunks are disjoint, so plain (non-atomic) counters are race-free.
  std::vector<int> hits(10013, 0);
  pool.parallel_for(0, hits.size(), 64,
                    [&](std::size_t b, std::size_t e, int) {
                      for (std::size_t i = b; i < e; ++i) ++hits[i];
                    });
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(Pool, SubrangeAndTidBounds) {
  ThreadPool pool(3);
  std::vector<int> hits(5000, 0);
  std::atomic<bool> tid_ok{true};
  pool.parallel_for(1200, 4321, 128,
                    [&](std::size_t b, std::size_t e, int tid) {
                      if (tid < 0 || tid >= 3) tid_ok = false;
                      for (std::size_t i = b; i < e; ++i) ++hits[i];
                    });
  EXPECT_TRUE(tid_ok.load());
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i], (i >= 1200 && i < 4321) ? 1 : 0) << "index " << i;
}

TEST(Pool, ReduceSumBitIdenticalAcrossThreadCounts) {
  std::vector<real_t> v(25003);
  Xoshiro256 rng(42);
  for (real_t& x : v) x = rng.uniform(-1, 1);
  auto run = [&](int threads) {
    ThreadPool pool(threads);
    return pool.reduce_sum(0, v.size(), 97,
                           [&](std::size_t b, std::size_t e) {
                             real_t s = 0;
                             for (std::size_t i = b; i < e; ++i) s += v[i];
                             return s;
                           });
  };
  const real_t r1 = run(1);
  // Bit-identical, not merely close: chunking is independent of the
  // thread count and partials combine in chunk order.
  EXPECT_EQ(r1, run(2));
  EXPECT_EQ(r1, run(4));
  EXPECT_EQ(r1, run(7));
}

TEST(Pool, NestedParallelForFallsBackToSerial) {
  ThreadPool pool(4);
  std::vector<int> hits(2000, 0);
  pool.parallel_for(0, 2, 1, [&](std::size_t ob, std::size_t oe, int) {
    for (std::size_t o = ob; o < oe; ++o) {
      const std::size_t base = o * 1000;
      pool.parallel_for(base, base + 1000, 64,
                        [&](std::size_t b, std::size_t e, int) {
                          for (std::size_t i = b; i < e; ++i) ++hits[i];
                        });
    }
  });
  for (std::size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i], 1);
}

TEST(Pool, ResizeKeepsWorking) {
  ThreadPool pool(1);
  for (int threads : {1, 4, 2, 1}) {
    pool.resize(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    std::vector<int> hits(1000, 0);
    pool.parallel_for(0, hits.size(), 32,
                      [&](std::size_t b, std::size_t e, int) {
                        for (std::size_t i = b; i < e; ++i) ++hits[i];
                      });
    for (int h : hits) ASSERT_EQ(h, 1);
  }
}

TEST(Pool, ManySmallJobsDrainCleanly) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  for (int rep = 0; rep < 200; ++rep)
    pool.parallel_for(0, 64, 4, [&](std::size_t b, std::size_t e, int) {
      total += long(e - b);
    });
  EXPECT_EQ(total.load(), 200 * 64);
}

TEST(Pool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, 16, [&](std::size_t, std::size_t, int) {
    called = true;
  });
  EXPECT_FALSE(called);
  EXPECT_EQ(pool.reduce_sum(3, 3, 8, [](std::size_t, std::size_t) {
    return real_t(1);
  }), real_t(0));
}

TEST(Pool, BackToBackJobsHitEveryIndexOnce) {
  // Jobs of 1..40 chunks published back to back, so workers still
  // draining one job race the publish of the next.
  constexpr std::size_t kGrain = 3;
  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    for (std::size_t chunks = 1; chunks <= 40; ++chunks) {
      const std::size_t n = chunks * kGrain - (chunks % kGrain);
      std::vector<int> hits(n, 0);
      pool.parallel_for(0, n, kGrain, [&](std::size_t b, std::size_t e, int) {
        for (std::size_t i = b; i < e; ++i) ++hits[i];
      });
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i], 1) << threads << " threads, " << chunks
                              << " chunks, index " << i;
    }
  }
}

TEST(Pool, ConcurrentCallersFallBackInline) {
  // Four threads drive one pool at once. One job runs at a time; the
  // callers that lose the race run their range inline as a single call.
  // Either way every call completes and covers its range exactly once,
  // in chunks that are a pure function of (range, grain).
  ThreadPool pool(4);
  constexpr std::size_t kN = 3000, kGrain = 100;
  constexpr int kCallers = 4, kRounds = 50;
  std::atomic<int> bad{0}, completed{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t)
    callers.emplace_back([&] {
      std::vector<std::atomic<int>> hits(kN);
      for (int round = 0; round < kRounds; ++round) {
        for (auto& h : hits) h.store(0, std::memory_order_relaxed);
        pool.parallel_for(0, kN, kGrain, [&](std::size_t b, std::size_t e,
                                             int) {
          const bool inline_call = b == 0 && e == kN;
          const bool chunk = b % kGrain == 0 && e == std::min(kN, b + kGrain);
          if (!inline_call && !chunk) bad.fetch_add(1);
          for (std::size_t i = b; i < e; ++i)
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (const auto& h : hits)
          if (h.load(std::memory_order_relaxed) != 1) bad.fetch_add(1);
        completed.fetch_add(1);
      }
    });
  for (std::thread& c : callers) c.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(completed.load(), kCallers * kRounds);
}

TEST(Pool, ConcurrentReduceSumsKeepTheirPartials) {
  // Callers with different data and chunk counts reduce at once (two
  // solves' residual norms). Whichever caller wins the pool must combine
  // its partials before the next one's job reuses (or regrows) the
  // buffer: every sum stays bit-identical to the serial one.
  ThreadPool pool(4);
  constexpr int kCallers = 4, kRounds = 50;
  std::vector<std::vector<real_t>> data(kCallers);
  std::vector<real_t> want(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    Xoshiro256 rng(std::uint64_t(7 + t));
    data[std::size_t(t)].resize(std::size_t(4000 + 1500 * t));
    for (real_t& x : data[std::size_t(t)]) x = rng.uniform(-1, 1);
    ThreadPool serial(1);
    want[std::size_t(t)] = serial.reduce_sum(
        0, data[std::size_t(t)].size(), 97,
        [&](std::size_t b, std::size_t e) {
          real_t s = 0;
          for (std::size_t i = b; i < e; ++i) s += data[std::size_t(t)][i];
          return s;
        });
  }
  std::atomic<int> bad{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t)
    callers.emplace_back([&, t] {
      const std::vector<real_t>& v = data[std::size_t(t)];
      for (int round = 0; round < kRounds; ++round) {
        const real_t got = pool.reduce_sum(
            0, v.size(), 97, [&](std::size_t b, std::size_t e) {
              real_t s = 0;
              for (std::size_t i = b; i < e; ++i) s += v[i];
              return s;
            });
        if (got != want[std::size_t(t)]) bad.fetch_add(1);
      }
    });
  for (std::thread& c : callers) c.join();
  EXPECT_EQ(bad.load(), 0);
}

/// Lets the pool's idle workers outlast their spin window and park.
void let_workers_park() {
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

TEST(Pool, ResizeWhileWorkersParked) {
  ThreadPool pool(4);
  for (int threads : {4, 2, 3, 1, 4}) {
    let_workers_park();
    pool.resize(threads);
    std::vector<int> hits(777, 0);
    pool.parallel_for(0, hits.size(), 16,
                      [&](std::size_t b, std::size_t e, int) {
                        for (std::size_t i = b; i < e; ++i) ++hits[i];
                      });
    for (int h : hits) ASSERT_EQ(h, 1) << threads << " threads";
  }
  let_workers_park();  // and the destructor joins parked workers
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

TEST(Pool, IdleWorkersParkInsteadOfSpinning) {
  // After a job, idle workers spin for a bounded window and then sleep.
  // Three workers spinning through the 200 ms nap would burn about 0.6 s
  // of CPU; parked ones burn next to nothing.
  ThreadPool pool(4);
  std::atomic<long> total{0};
  pool.parallel_for(0, 4096, 64, [&](std::size_t b, std::size_t e, int) {
    total += long(e - b);
  });
  ASSERT_EQ(total.load(), 4096);
  const double cpu0 = process_cpu_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const double burned = process_cpu_seconds() - cpu0;
  EXPECT_LT(burned, 0.1) << "idle workers kept spinning";
}

}  // namespace
}  // namespace columbia::smp
