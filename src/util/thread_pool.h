// Shared-memory parallelism substrate.
//
// A fixed-size worker pool with a blocking task queue, plus a
// `parallel_for` that block-partitions an index range across the pool.
// Parallel results must be written to disjoint, pre-sized slots so the
// outcome is independent of scheduling order (keeps experiments
// deterministic under any thread count).
//
// The pool is instrumented via obs::Metrics (shared across all pools):
//   threadpool.tasks_submitted / threadpool.tasks_completed   counters
//   threadpool.queue_depth                                    gauge (+max)
//   threadpool.task_wait_s / threadpool.task_run_s            histograms
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <queue>
#include <string_view>
#include <thread>
#include <vector>

namespace phonolid::util {

class ThreadPool {
 public:
  /// `num_threads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t num_threads() const noexcept { return workers_.size(); }

  /// Enqueue a task; returns a future for its completion.
  std::future<void> submit(std::function<void()> task);

  /// Pop one queued task and run it on the *calling* thread; returns false
  /// when the queue is empty.  This is how blocked waiters (parallel_for,
  /// pipeline::StageRunner) help drain the queue instead of deadlocking
  /// when every worker is itself waiting on nested tasks.
  bool try_run_one();

  /// Wait for `future`, executing queued tasks while it is not ready.
  /// Safe to call from pool workers (nested parallelism cannot deadlock:
  /// the waiter makes progress on whatever is queued).
  void wait_helping(std::future<void>& future);

  /// Process-wide pool, sized from PHONOLID_THREADS or hardware concurrency.
  /// A PHONOLID_THREADS that parse_thread_count rejects is reported once on
  /// stderr and ignored.
  static ThreadPool& global();

 private:
  struct QueuedTask {
    std::function<void()> task;
    std::promise<void> done;
    std::chrono::steady_clock::time_point enqueued;
  };

  void run_task(QueuedTask& item);
  void worker_loop(std::size_t worker_index);

  std::vector<std::thread> workers_;
  std::queue<QueuedTask> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Largest PHONOLID_THREADS value the global pool accepts.
inline constexpr std::size_t kMaxThreads = 1024;

/// A PHONOLID_THREADS value: a whole decimal integer in [1, kMaxThreads],
/// nothing else (no sign, space or suffix); nullopt otherwise.
[[nodiscard]] std::optional<std::size_t> parse_thread_count(
    std::string_view text) noexcept;

/// Run body(i) for i in [begin, end) across the pool, in contiguous blocks.
/// Blocks until every index is done.  Exceptions from the body propagate
/// (the first one encountered is rethrown).
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t min_block = 1);

/// Convenience overload on the global pool.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t min_block = 1);

}  // namespace phonolid::util
