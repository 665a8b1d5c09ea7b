#include "src/common/thread_pool.h"

#include <cstdlib>
#include <exception>
#include <string>

namespace gridbox::common {

ThreadPool::ThreadPool(std::size_t thread_count) {
  if (thread_count == 0) thread_count = 1;
  workers_.reserve(thread_count);
  for (std::size_t i = 0; i < thread_count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::enqueue(std::function<void()> job) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    jobs_.push(std::move(job));
  }
  wake_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // stopping_ and drained
      job = std::move(jobs_.front());
      jobs_.pop();
    }
    job();  // packaged_task: exceptions are captured in the future
  }
}

std::size_t ThreadPool::resolve_jobs(std::size_t requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("GRIDBOX_JOBS")) {
    try {
      const long long parsed = std::stoll(std::string(env));
      if (parsed > 0) return static_cast<std::size_t>(parsed);
    } catch (...) {
      // Malformed GRIDBOX_JOBS falls through to hardware_concurrency.
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void run_indexed(std::size_t count, std::size_t jobs,
                 const std::function<void(std::size_t)>& task) {
  if (jobs <= 1) {
    for (std::size_t i = 0; i < count; ++i) task(i);
    return;
  }
  ThreadPool pool(jobs);
  std::vector<std::future<void>> futures;
  futures.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    futures.push_back(pool.submit([&task, i] { task(i); }));
  }
  std::exception_ptr first_error;
  for (std::future<void>& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace gridbox::common
