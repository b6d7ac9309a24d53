// ThreadPool concurrency semantics: the cases the TSan preset exercises.
//
// The pool's contract has three subtle points — Wait() covers tasks spawned
// *by* tasks, ParallelFor must cover every index exactly once under chunking,
// and destruction drains all pending work — each verified here with enough
// cross-thread traffic that a locking regression shows up as a TSan report.

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/mutex.h"
#include "util/thread_pool.h"

namespace crossmodal {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitCoversWorkerSpawnedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  // Each top-level task spawns children from a worker thread; Wait() must
  // block until the whole tree has run, not just the initially queued tasks.
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&pool, &count] {
      count.fetch_add(1, std::memory_order_relaxed);
      for (int j = 0; j < 4; ++j) {
        pool.Submit([&pool, &count] {
          count.fetch_add(1, std::memory_order_relaxed);
          pool.Submit(
              [&count] { count.fetch_add(1, std::memory_order_relaxed); });
        });
      }
    });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 8 + 8 * 4 + 8 * 4);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(3);
  // 1019 is prime, so it never divides evenly into chunks: exercises the
  // ragged final chunk.
  constexpr size_t kN = 1019;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&hits](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForZeroAndSingleElement) {
  ThreadPool pool(2);
  std::atomic<size_t> calls{0};
  pool.ParallelFor(
      0, [&calls](size_t) { calls.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(calls.load(), 0u);
  pool.ParallelFor(
      1, [&calls](size_t) { calls.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(calls.load(), 1u);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    // Swamp two workers so the queue is deep when the destructor runs; every
    // submitted task must still execute before join.
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolTest, ConcurrentSubmittersFromExternalThreads) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::thread> producers;
  producers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&pool, &count] {
      for (int i = 0; i < 50; ++i) {
        pool.Submit(
            [&count] { count.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (auto& t : producers) t.join();
  pool.Wait();
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> hits{0};
  std::atomic<int> nested_on_worker{0};
  // The outer loop's bodies run on pool workers; the inner ParallelFor must
  // detect that and degrade to an inline loop (submitting + waiting from a
  // worker could deadlock on its own task). Every (outer, inner) pair still
  // runs exactly once.
  pool.ParallelFor(4, [&pool, &hits, &nested_on_worker](size_t) {
    nested_on_worker.fetch_add(1, std::memory_order_relaxed);
    pool.ParallelFor(100, [&hits](size_t) {
      hits.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(nested_on_worker.load(), 4);
  EXPECT_EQ(hits.load(), 400);
}

TEST(ThreadPoolTest, ParallelForPropagatesLowestChunkException) {
  ThreadPool pool(4);
  // With 4 workers and n=64, ParallelFor chunks by 4: the throws at i=5 and
  // i=60 land in the chunks beginning at 4 and 60. The contract rethrows
  // the lowest-begin chunk's exception regardless of which chunk ran first,
  // and still runs every non-throwing index.
  constexpr size_t kN = 64;
  std::vector<std::atomic<int>> hits(kN);
  std::string message;
  try {
    pool.ParallelFor(kN, [&hits](size_t i) {
      if (i == 5 || i == 60) throw std::runtime_error("boom " + std::to_string(i));
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    FAIL() << "ParallelFor swallowed the exception";
  } catch (const std::runtime_error& e) {
    message = e.what();
  }
  EXPECT_EQ(message, "boom 5");
  // A throw abandons the rest of its own chunk ([4,8) stops after 5, [60,64)
  // stops at 60) but no other chunk: every index outside the two throwing
  // chunks must have run exactly once.
  for (size_t i = 0; i < kN; ++i) {
    if (i >= 4 && i < 8) continue;
    if (i >= 60) continue;
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_EQ(hits[4].load(), 1);  // ran before the throw at 5
  // The pool is still usable after an exception drained through Wait().
  std::atomic<int> after{0};
  pool.ParallelFor(10, [&after](size_t) {
    after.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(after.load(), 10);
}

TEST(ThreadPoolTest, MinimumOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  int ran = 0;
  // cmrace: shared-ok — single task; pool.Wait() below orders the write
  pool.Submit([&ran] { ran = 1; });
  pool.Wait();
  EXPECT_EQ(ran, 1);
}

TEST(MutexTest, GuardsCounterAcrossThreads) {
  Mutex mu;
  int counter = 0;
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&mu, &counter] {
      for (int i = 0; i < 1000; ++i) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 4000);
}

}  // namespace
}  // namespace crossmodal
