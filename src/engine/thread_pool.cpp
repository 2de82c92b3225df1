#include "engine/thread_pool.hpp"

#include <atomic>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/status.hpp"

namespace harmony::engine {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) throw std::invalid_argument("ThreadPool: zero threads");
  static std::atomic<std::uint64_t> next_pool_id{0};
  status_name_ = "pool/";
  status_name_ += std::to_string(next_pool_id.fetch_add(1));
  obs::gauge_set<"engine.pool.size">(static_cast<double>(threads));
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back(
        [this, i] { worker_loop(static_cast<std::uint32_t>(i)); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::post(std::function<void()> job) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) throw std::runtime_error("ThreadPool: submit after shutdown");
    queue_.push(std::move(job));
  }
  cv_.notify_one();
}

void ThreadPool::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

std::size_t ThreadPool::completed() const {
  return completed_.load(std::memory_order_acquire);
}

void ThreadPool::worker_loop(std::uint32_t lane) {
  // Live-status lane, claimed lazily the first time observability is on so
  // the disabled path stays at one relaxed load per loop turn. The handle
  // unpublishes when the worker exits.
  obs::StatusRegistry::WorkerHandle status;
  std::uint64_t done = 0;
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Graceful shutdown: drain the queue before exiting, so every future
      // handed out by submit() becomes ready.
      if (queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop();
    }
    if (obs::enabled()) {
      if (!status.valid()) {
        status = obs::StatusRegistry::global().publish_worker(status_name_, lane);
      }
      status.set(/*busy=*/true, done);
    }
    {
      // Zero-cost when disabled: time_scope holds no histogram (and reads
      // no clock) unless observability is on at task start.
      const auto timer = obs::time_scope<"engine.pool.task_s">();
      job();  // packaged_task captures exceptions into the future
    }
    ++done;
    if (status.valid()) status.set(/*busy=*/false, done);
    obs::count<"engine.pool.tasks">();
  }
}

}  // namespace harmony::engine
