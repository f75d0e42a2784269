#pragma once
/// \file thread_pool.hpp
/// A small fixed-size worker pool for the design-time pipeline (dataset
/// generation, trainer validation), the root-parallel MCTS search, and any
/// other embarrassingly-index-parallel loop.
///
/// Determinism contract: parallel_for(n, fn) runs fn(i, worker) exactly once
/// for every i in [0, n). Work is handed out dynamically (an atomic index
/// counter), so *which* worker runs an index — and in what order — varies
/// run to run; therefore fn must derive everything it needs from the index
/// (slot-seeded RNG via util::fork_stream, writes into slot i of a
/// pre-sized output), never from execution order or the worker id. The
/// worker id exists only to address per-worker scratch (e.g. a private
/// DesSimulator). Loops written this way produce byte-identical results for
/// every worker count, including 1.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace omniboost::util {

class ThreadPool {
 public:
  /// Index-parallel task body: (item index, worker id in [0, size())).
  using IndexFn = std::function<void(std::size_t, std::size_t)>;

  /// \param workers  concurrent workers (>= 1). With workers == 1 no thread
  ///                 is spawned: parallel_for runs inline on the caller, in
  ///                 ascending index order — the exact sequential loop.
  explicit ThreadPool(std::size_t workers = 1);

  /// Workers actually worth spawning for an \p items-slot job:
  /// min(requested, items, hardware concurrency). For slot-indexed work the
  /// pool size is pure execution detail (results depend only on the index),
  /// so clamping never changes output — it only avoids paying for threads
  /// the host cannot run (or slots that do not exist).
  static std::size_t clamped(std::size_t requested, std::size_t items);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins all workers. Must not be called while a parallel_for is running.
  ~ThreadPool();

  /// Number of workers (1 when running inline).
  std::size_t size() const { return threads_.empty() ? 1 : threads_.size(); }

  /// Runs fn(i, worker) once for every i in [0, n); blocks until all indices
  /// finished. The first exception thrown by fn is rethrown here (remaining
  /// indices are abandoned once a failure is recorded). Not reentrant: one
  /// parallel_for at a time per pool.
  void parallel_for(std::size_t n, const IndexFn& fn);

 private:
  void worker_loop(std::size_t worker_id);

  std::vector<std::thread> threads_;

  // Job state, guarded by mutex_ (next_ races ahead via fetch_add semantics
  // implemented under the lock for simplicity — the per-index work in this
  // codebase dwarfs a mutex acquisition).
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  const IndexFn* job_ = nullptr;
  std::size_t job_n_ = 0;
  std::size_t next_ = 0;
  std::size_t active_ = 0;  ///< workers still inside the current job
  std::uint64_t generation_ = 0;
  std::exception_ptr error_;
  bool stop_ = false;
};

}  // namespace omniboost::util
