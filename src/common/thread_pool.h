/// \file thread_pool.h
/// \brief Fixed-size worker pool.
///
/// Two kinds of callers use it: net::HttpServer runs its connection
/// handlers on one, and IndexJoinCpu splits its point loop across one per
/// call (the paper's multi-core CPU baseline, §7.1). The simulated device
/// owns none: its draw calls run on the calling thread.
#pragma once

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace rj {

class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (0 = hardware concurrency).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task; tasks may run on any worker in any order.
  void Submit(std::function<void()> task) RJ_EXCLUDES(mutex_);

  /// Blocks until every submitted task has finished executing.
  void Wait() RJ_EXCLUDES(mutex_);

  /// Splits [0, n) into at most num_threads() contiguous chunks, in
  /// ascending order, and runs `fn(begin, end, chunk_index)` on the pool,
  /// blocking until done. Runs inline when the pool has a single worker
  /// (avoids queue overhead). Safe to call from multiple threads
  /// concurrently: each call waits only for its own chunks, not for other
  /// callers' tasks.
  void ParallelFor(std::size_t n,
                   const std::function<void(std::size_t, std::size_t,
                                            std::size_t)>& fn);

 private:
  void WorkerLoop() RJ_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;  ///< immutable after construction
  Mutex mutex_;
  std::queue<std::function<void()>> tasks_ RJ_GUARDED_BY(mutex_);
  CondVar task_cv_;
  CondVar done_cv_;
  /// Tasks submitted but not yet finished (queued + executing).
  std::size_t in_flight_ RJ_GUARDED_BY(mutex_) = 0;
  bool shutdown_ RJ_GUARDED_BY(mutex_) = false;
};

}  // namespace rj
