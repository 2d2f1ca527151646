// Fixed-size worker pool used to fan independent simulation cells across
// cores. Each submitted task must be self-contained: the simulator and every
// layer below it are single-threaded by design, so parallelism lives one
// level up — whole machines (one per experiment cell) run concurrently and
// never share mutable state.
#pragma once

#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace pipette {

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit ThreadPool(unsigned threads);

  /// Drains already-submitted tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue `fn`; the future becomes ready when it finishes (holding any
  /// exception the task threw).
  std::future<void> submit(std::function<void()> fn);

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Hardware concurrency, at least 1 (the standard allows 0 = unknown).
  static unsigned default_threads();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Run body(i) for every i in [0, n) across min(jobs, n) workers (jobs == 0
/// means default_threads()). With one worker the indices run serially, in
/// order, on the calling thread; otherwise each index is one pool task,
/// taken by whichever worker is free. Returns when every index has run and
/// rethrows the first failure in index order.
void parallel_for(std::size_t n, unsigned jobs,
                  const std::function<void(std::size_t)>& body);

}  // namespace pipette
