#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <exception>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "util/logging.h"

namespace phonolid::util {

namespace {

// Latency buckets spanning sub-microsecond queue waits up to multi-second
// stalls (seconds, upper edges).
const std::vector<double>& latency_edges() {
  static const std::vector<double> edges = {1e-6, 1e-5, 1e-4, 1e-3, 1e-2,
                                            1e-1, 1.0,  10.0};
  return edges;
}

struct PoolMetrics {
  obs::Counter& submitted = obs::Metrics::counter("threadpool.tasks_submitted");
  obs::Counter& completed = obs::Metrics::counter("threadpool.tasks_completed");
  obs::Gauge& queue_depth = obs::Metrics::gauge("threadpool.queue_depth");
  obs::Histogram& wait_s =
      obs::Metrics::histogram("threadpool.task_wait_s", latency_edges());
  obs::Histogram& run_s =
      obs::Metrics::histogram("threadpool.task_run_s", latency_edges());
};

PoolMetrics& pool_metrics() {
  static PoolMetrics m;
  return m;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  PoolMetrics& metrics = pool_metrics();
  std::promise<void> done;
  auto fut = done.get_future();
  {
    std::lock_guard lock(mutex_);
    tasks_.push(
        {std::move(task), std::move(done), std::chrono::steady_clock::now()});
  }
  metrics.submitted.add();
  const std::int64_t depth = metrics.queue_depth.add(1);
  PHONOLID_COUNTER_SAMPLE("threadpool.queue_depth",
                          static_cast<double>(depth));
  cv_.notify_one();
  return fut;
}

void ThreadPool::run_task(QueuedTask& item) {
  using clock = std::chrono::steady_clock;
  PoolMetrics& metrics = pool_metrics();
  const std::int64_t depth = metrics.queue_depth.add(-1);
  PHONOLID_COUNTER_SAMPLE("threadpool.queue_depth",
                          static_cast<double>(depth));
  const auto start = clock::now();
  metrics.wait_s.observe(
      std::chrono::duration<double>(start - item.enqueued).count());
  std::exception_ptr error;
  try {
    item.task();
  } catch (...) {
    error = std::current_exception();
  }
  // Record the task as complete before its future becomes ready, so a
  // caller that returns from get() always sees its task counted.
  metrics.run_s.observe(
      std::chrono::duration<double>(clock::now() - start).count());
  metrics.completed.add();
  if (error) {
    item.done.set_exception(error);
  } else {
    item.done.set_value();
  }
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  obs::FlightRecorder::set_thread_name("pool-worker-" +
                                       std::to_string(worker_index));
  // Register with the sampling profiler up front so a profiled run samples
  // workers from their first task (arms this thread's timer if running).
  obs::Profiler::register_thread();
  for (;;) {
    QueuedTask item;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      item = std::move(tasks_.front());
      tasks_.pop();
    }
    run_task(item);
  }
}

bool ThreadPool::try_run_one() {
  QueuedTask item;
  {
    std::lock_guard lock(mutex_);
    if (tasks_.empty()) return false;
    item = std::move(tasks_.front());
    tasks_.pop();
  }
  run_task(item);
  return true;
}

void ThreadPool::wait_helping(std::future<void>& future) {
  using namespace std::chrono_literals;
  while (future.wait_for(0s) != std::future_status::ready) {
    if (!try_run_one()) {
      // Queue empty but our task still runs elsewhere; back off briefly.
      future.wait_for(100us);
    }
  }
}

std::optional<std::size_t> parse_thread_count(std::string_view text) noexcept {
  const char* const last = text.data() + text.size();
  std::size_t n = 0;
  const auto [end, ec] = std::from_chars(text.data(), last, n);
  if (ec != std::errc{} || end != last || n < 1 || n > kMaxThreads) {
    return std::nullopt;
  }
  return n;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    const char* env = std::getenv("PHONOLID_THREADS");
    if (env == nullptr) return std::size_t{0};
    if (const auto n = parse_thread_count(env)) return *n;
    PHONOLID_LOG(LogLevel::kWarn, "util")
        << "ignoring PHONOLID_THREADS='" << env
        << "': want a whole number in [1, " << kMaxThreads
        << "]; using hardware concurrency";
    return std::size_t{0};
  }());
  return pool;
}

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t min_block) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t workers = pool.num_threads();
  if (workers <= 1 || n <= min_block) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  // Over-decompose 4x for load balance; clamp block size to min_block.
  std::size_t blocks = std::min(n, workers * 4);
  std::size_t block = std::max(min_block, (n + blocks - 1) / blocks);

  std::vector<std::future<void>> futures;
  futures.reserve((n + block - 1) / block);
  std::atomic<bool> failed{false};
  for (std::size_t lo = begin; lo < end; lo += block) {
    const std::size_t hi = std::min(end, lo + block);
    futures.push_back(pool.submit([lo, hi, &body, &failed] {
      // Skip work if another block already threw; its exception wins.
      if (failed.load(std::memory_order_relaxed)) return;
      try {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        throw;
      }
    }));
  }
  std::exception_ptr first_error;
  for (auto& f : futures) {
    pool.wait_helping(f);
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t min_block) {
  parallel_for(ThreadPool::global(), begin, end, body, min_block);
}

}  // namespace phonolid::util
