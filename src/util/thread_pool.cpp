#include "util/thread_pool.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace omniboost::util {

std::size_t ThreadPool::clamped(std::size_t requested, std::size_t items) {
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return std::max<std::size_t>(1, std::min({requested, items, hw}));
}

ThreadPool::ThreadPool(std::size_t workers) {
  OB_REQUIRE(workers >= 1, "ThreadPool: worker count must be >= 1");
  if (workers == 1) return;  // inline mode, no threads
  threads_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w)
    threads_.emplace_back([this, w] { worker_loop(w); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::parallel_for(std::size_t n, const IndexFn& fn) {
  if (n == 0) return;
  if (threads_.empty()) {
    // Inline mode: the plain sequential loop, worker id 0.
    for (std::size_t i = 0; i < n; ++i) fn(i, 0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    OB_REQUIRE(job_ == nullptr, "ThreadPool::parallel_for is not reentrant");
    job_ = &fn;
    job_n_ = n;
    next_ = 0;
    active_ = threads_.size();
    error_ = nullptr;
    ++generation_;
  }
  work_ready_.notify_all();
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    work_done_.wait(lock, [this] { return active_ == 0; });
    job_ = nullptr;
    error = error_;
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::worker_loop(std::size_t worker_id) {
  std::uint64_t seen_generation = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_ready_.wait(lock, [this, seen_generation] {
      return stop_ || generation_ != seen_generation;
    });
    if (stop_) return;
    seen_generation = generation_;
    // Claim indices until the job is drained (or failed). The lock is
    // dropped around the user function, so workers run concurrently.
    while (!error_ && next_ < job_n_) {
      const std::size_t index = next_++;
      const IndexFn* fn = job_;
      lock.unlock();
      try {
        (*fn)(index, worker_id);
        lock.lock();
      } catch (...) {
        lock.lock();
        if (!error_) error_ = std::current_exception();
      }
    }
    if (--active_ == 0) {
      lock.unlock();
      work_done_.notify_all();
      lock.lock();
    }
  }
}

}  // namespace omniboost::util
