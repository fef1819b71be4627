#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

namespace rj {
namespace {

TEST(ThreadPoolTest, ExecutesSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.Submit([&count] { ++count; });
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPoolTest, SingleWorkerPoolRunsParallelForInline) {
  ThreadPool pool(1);
  std::vector<int> hits(10, 0);
  pool.ParallelFor(10, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) hits[i]++;
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelFor(n, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) hits[i]++;
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroElementsIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&](std::size_t, std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, WorkerIndexWithinBounds) {
  ThreadPool pool(3);
  std::atomic<bool> in_bounds{true};
  pool.ParallelFor(100, [&](std::size_t, std::size_t, std::size_t worker) {
    if (worker >= pool.num_threads()) in_bounds = false;
  });
  EXPECT_TRUE(in_bounds.load());
}

TEST(ThreadPoolTest, ConcurrentParallelForCallersAreIndependent) {
  // Callers may share one pool, so ParallelFor must wait only for its own
  // chunks: with the old pool-global in-flight wait, a steady stream of
  // calls from other threads could hold a caller hostage (or starve it
  // forever). Hammer the pool from several client threads and check every
  // call completes with full coverage.
  ThreadPool pool(4);
  constexpr std::size_t kClients = 6;
  constexpr std::size_t kRounds = 50;
  constexpr std::size_t kN = 512;
  std::atomic<std::uint64_t> total{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        std::atomic<std::uint64_t> covered{0};
        pool.ParallelFor(kN, [&covered](std::size_t begin, std::size_t end,
                                        std::size_t) {
          covered += end - begin;
        });
        EXPECT_EQ(covered.load(), kN);
        total += covered.load();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(total.load(), kClients * kRounds * kN);
}

TEST(ThreadPoolTest, ReusableAcrossBarriers) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 5; ++round) {
    pool.ParallelFor(100, [&](std::size_t begin, std::size_t end,
                              std::size_t) {
      total += static_cast<int>(end - begin);
    });
  }
  EXPECT_EQ(total.load(), 500);
}

}  // namespace
}  // namespace rj
