#include "common/thread_pool.h"

#include <algorithm>
#include <utility>

namespace pipette {

ThreadPool::ThreadPool(unsigned threads) {
  threads = std::max(threads, 1u);
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> fut = task.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push(std::move(task));
  }
  cv_.notify_one();
  return fut;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();  // exceptions land in the task's future
  }
}

unsigned ThreadPool::default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void parallel_for(std::size_t n, unsigned jobs,
                  const std::function<void(std::size_t)>& body) {
  if (jobs == 0) jobs = ThreadPool::default_threads();
  const std::size_t workers = std::min<std::size_t>(jobs, n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  ThreadPool pool(static_cast<unsigned>(workers));
  std::vector<std::future<void>> pending;
  pending.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    pending.push_back(pool.submit([&body, i] { body(i); }));
  for (std::future<void>& f : pending) f.get();
}

}  // namespace pipette
