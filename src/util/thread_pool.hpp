#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace exawatt::util {

/// Fixed-size worker pool: the process's compute threads. Tasks are
/// type-erased std::function<void()>; fan out with util::parallel_for,
/// which is safe to nest. Deliberately simple — no work stealing — because
/// the partitions are coarse (days / node groups / segments) and uniform.
class ThreadPool {
 public:
  /// `threads == 0` selects hardware_concurrency() (minimum 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; returns a future for its completion/result.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lk(mutex_);
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Process-wide shared pool (lazily constructed, sized to the machine).
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace exawatt::util
