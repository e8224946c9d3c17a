// Fixed-size worker pool.
//
// The federated simulator runs every site's client loop on one of these
// pools, the way NVFlare's SimulatorRunner multiplexes clients over threads. Tasks are
// type-erased `std::function<void()>`; callers wanting results submit
// through `submit()` and receive a future.
#pragma once

#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "core/thread_annotations.h"

namespace cppflare::core {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(std::size_t num_threads);

  /// Drains nothing: pending tasks that have not started are discarded;
  /// running tasks are joined (threads are always joined, never detached).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Fire-and-forget enqueue: no future, no packaged_task allocation. Used
  /// by the parallel_for helpers, which report completion and exceptions
  /// through their own region state. Dropped silently if the pool is
  /// stopping. The task must not throw.
  void post(std::function<void()> fn);

  /// Enqueues a task and returns a future for its result. Exceptions thrown
  /// by the task are captured in the future.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      MutexLock lock(mu_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  std::size_t size() const { return workers_.size(); }

 private:
  void worker_loop();

  /// Guards queue_ and stopping_. Invariant: stopping_ transitions to true
  /// exactly once, under mu_, before the final notify_all — workers checking
  /// the predicate under the same mutex therefore cannot miss shutdown.
  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ CF_GUARDED_BY(mu_);
  bool stopping_ CF_GUARDED_BY(mu_) = false;
  /// Immutable after the constructor returns (size() reads it unlocked).
  std::vector<std::thread> workers_;
};

}  // namespace cppflare::core
