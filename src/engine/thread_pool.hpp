#pragma once

/// \file thread_pool.hpp
/// Fixed-size worker pool used by the parallel evaluation engine. The paper's
/// off-line tuning loop evaluates one candidate per iteration; every substrate
/// in this repo is a deterministic simulation, so short runs are embarrassingly
/// parallel and the pool lets a batch of candidates execute concurrently.
///
/// Semantics:
///  * submit() wraps the callable in a std::packaged_task and returns its
///    future; exceptions thrown by the task propagate to future::get().
///  * Shutdown is graceful: the destructor (or shutdown()) stops accepting
///    new work, drains every task already queued, then joins the workers —
///    a future obtained from submit() therefore always becomes ready.
///  * A pool of size 1 executes tasks strictly in submission order, which is
///    what makes PoolEvalBackend's pool-size-1 determinism guard possible.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace harmony::engine {

class ThreadPool {
 public:
  /// Spawn `threads` workers (throws std::invalid_argument when 0).
  explicit ThreadPool(std::size_t threads);

  /// Drains queued work and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Queue a callable; the returned future yields its result or rethrows
  /// whatever it threw. Throws std::runtime_error after shutdown.
  template <typename F>
  [[nodiscard]] std::future<std::invoke_result_t<std::decay_t<F>>> submit(F&& f) {
    using R = std::invoke_result_t<std::decay_t<F>>;
    // The task counts itself on the way out (return or throw), before the
    // packaged_task makes its future ready, so a ready future is always
    // reflected in completed().
    auto task = std::make_shared<std::packaged_task<R()>>(
        [this, fn = std::forward<F>(f)]() mutable -> R {
          const CountOnExit counted{completed_};
          return fn();
        });
    std::future<R> fut = task->get_future();
    post([task]() { (*task)(); });
    return fut;
  }

  /// Stop accepting work, finish everything queued, join the workers.
  /// Idempotent; called by the destructor.
  void shutdown();

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Tasks executed over the pool's lifetime (for tests and reports). A task
  /// is counted before its future becomes ready.
  [[nodiscard]] std::size_t completed() const;

 private:
  struct CountOnExit {
    std::atomic<std::size_t>& n;
    ~CountOnExit() { n.fetch_add(1, std::memory_order_release); }
  };

  void post(std::function<void()> job);
  void worker_loop(std::uint32_t lane);

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::atomic<std::size_t> completed_{0};
  bool stopping_ = false;
  /// "pool/<n>", dense per process: the name this pool's worker lanes
  /// publish under on the live-status board.
  std::string status_name_;
};

}  // namespace harmony::engine
