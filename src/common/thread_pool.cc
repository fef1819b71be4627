#include "common/thread_pool.h"

#include <algorithm>

namespace rj {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    shutdown_ = true;
  }
  task_cv_.NotifyAll();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_cv_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(mutex_);
  while (in_flight_ != 0) done_cv_.Wait(lock);
}

void ThreadPool::ParallelFor(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (num_threads() <= 1 || n == 1) {
    fn(0, n, 0);
    return;
  }
  // At most one chunk per worker, each `size` elements (the last may be
  // short), in ascending order.
  const std::size_t chunks = std::min(n, num_threads());
  const std::size_t size = (n + chunks - 1) / chunks;
  const std::size_t count = (n + size - 1) / size;
  // Per-call completion state: concurrent ParallelFor calls may share the
  // pool, so waiting on the pool-global in-flight count would block one
  // caller on another's tasks — and never unblock under a steady stream of
  // submissions.
  struct CallState {
    Mutex mutex;
    CondVar cv;
    std::size_t remaining RJ_GUARDED_BY(mutex) = 0;
  };
  CallState call;
  {
    MutexLock lock(call.mutex);
    call.remaining = count;
  }
  for (std::size_t c = 0; c < count; ++c) {
    const std::size_t begin = c * size;
    const std::size_t end = std::min(n, begin + size);
    Submit([&fn, &call, begin, end, c] {
      fn(begin, end, c);
      MutexLock lock(call.mutex);
      if (--call.remaining == 0) call.cv.NotifyAll();
    });
  }
  MutexLock lock(call.mutex);
  while (call.remaining != 0) call.cv.Wait(lock);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!shutdown_ && tasks_.empty()) task_cv_.Wait(lock);
      if (tasks_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      MutexLock lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) done_cv_.NotifyAll();
    }
  }
}

}  // namespace rj
