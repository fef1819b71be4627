/// \file thread_pool.h
/// \brief Fixed-size worker pool used to emulate GPU SIMT parallelism.
///
/// The simulated device (gpu::Device) executes shader stages by splitting
/// the primitive stream across pool workers. On a many-core host this gives
/// real parallel speedups analogous to the GPU's; on a single-core host the
/// pool degrades gracefully to sequential execution (the paper-shape metrics
/// in bench output are work counters, independent of the core count).
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

  /// Number of contiguous chunks ParallelFor(n, ...) will split [0, n)
  /// into. Chunk index c covers an ascending range; parallel reductions
  /// size their per-chunk state with this so merge order is well defined.
  /// ParallelFor derives its partition from the same PlanChunks call, so
  /// the two can never drift apart.
  std::size_t NumChunks(std::size_t n) const {
    return PlanChunks(n, num_threads()).count;
  }

  /// Splits [0, n) into NumChunks(n) contiguous chunks and runs
  /// `fn(begin, end, chunk_index)` on the pool, blocking until done.
  /// Runs inline when the pool has a single worker (avoids queue overhead).
  /// Safe to call from multiple threads concurrently: each call waits only
  /// for its own chunks, not for other callers' tasks (QueryService runs
  /// concurrent queries against one shared device pool).
  void ParallelFor(std::size_t n,
                   const std::function<void(std::size_t, std::size_t,
                                            std::size_t)>& fn);

  /// Process-wide default pool (lazily constructed, hardware concurrency).
  static ThreadPool& Default();

 private:
  /// The single source of truth for ParallelFor's partition of [0, n).
  struct ChunkPlan {
    std::size_t size = 0;   ///< elements per chunk (last one may be short)
    std::size_t count = 0;  ///< number of non-empty chunks
  };
  static ChunkPlan PlanChunks(std::size_t n, std::size_t workers) {
    if (n == 0) return {0, 0};
    if (workers <= 1 || n == 1) return {n, 1};
    const std::size_t chunks = std::min(n, workers);
    const std::size_t size = (n + chunks - 1) / chunks;
    return {size, (n + size - 1) / size};
  }

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
