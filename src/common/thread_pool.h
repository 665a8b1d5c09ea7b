// Fixed-size thread pool for fanning independent simulations across cores.
//
// Deliberately minimal: no work stealing, no priorities, no dynamic sizing.
// Sweeps submit closures whose results land in pre-sized slots, so the pool
// never needs to know about ordering — determinism is the caller's job (each
// task derives everything it needs, notably its RNG seed, in closed form).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace gridbox::common {

class ThreadPool {
 public:
  /// Spawns `thread_count` workers (clamped to >= 1).
  explicit ThreadPool(std::size_t thread_count);

  /// Drains nothing: pending tasks still run, then workers join.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueues `task` and returns a future for its result. Exceptions thrown
  /// by the task are captured and rethrown from future::get(). Safe to call
  /// concurrently from multiple threads.
  template <typename F>
  [[nodiscard]] std::future<std::invoke_result_t<F>> submit(F&& task) {
    using Result = std::invoke_result_t<F>;
    auto packaged = std::make_shared<std::packaged_task<Result()>>(
        std::forward<F>(task));
    std::future<Result> future = packaged->get_future();
    enqueue([packaged] { (*packaged)(); });
    return future;
  }

  /// Resolves the worker count to use: `requested` if nonzero, else the
  /// GRIDBOX_JOBS environment variable if set and positive, else
  /// hardware_concurrency (always >= 1).
  [[nodiscard]] static std::size_t resolve_jobs(std::size_t requested);

 private:
  void enqueue(std::function<void()> job);
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::queue<std::function<void()>> jobs_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Runs task(0) .. task(count - 1): inline when jobs <= 1, else across a
/// pool of `jobs` workers. Every task is joined before the first failure
/// (in index order) is rethrown, so no task outlives the caller's state.
void run_indexed(std::size_t count, std::size_t jobs,
                 const std::function<void(std::size_t)>& task);

}  // namespace gridbox::common
