#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "obs/metrics.h"

namespace phonolid::util {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, PropagatesExceptionThroughFuture) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, TaskIsCountedBeforeItsFutureIsReady) {
  // A caller returning from get() must see its task in tasks_completed,
  // thrown or not; a count bumped after the future is made ready reads
  // stale here within a few thousand round trips.
  obs::Counter& completed = obs::Metrics::counter("threadpool.tasks_completed");
  ThreadPool pool(2);
  const std::uint64_t base = completed.value();
  for (std::uint64_t i = 1; i <= 20000; ++i) {
    auto fut = i % 100 == 0 ? pool.submit([] { throw std::runtime_error("x"); })
                            : pool.submit([] {});
    try {
      fut.get();
    } catch (const std::runtime_error&) {
    }
    ASSERT_EQ(completed.value() - base, i) << "round trip " << i;
  }
}

TEST(ThreadPool, ParseThreadCountAcceptsOnlyWholeNumbersInRange) {
  EXPECT_EQ(parse_thread_count("1"), 1u);
  EXPECT_EQ(parse_thread_count("4"), 4u);
  EXPECT_EQ(parse_thread_count("04"), 4u);
  EXPECT_EQ(parse_thread_count("1024"), kMaxThreads);
  for (const char* bad : {"", "0", "1025", "40000", "99999999999999999999999",
                          "4x", "four", "-2", "+4", " 4", "4 ", "4.0"}) {
    EXPECT_EQ(parse_thread_count(bad), std::nullopt) << "'" << bad << "'";
  }
}

TEST(ThreadPool, SizeRespected) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(pool, 0, n, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(4);
  int calls = 0;
  parallel_for(pool, 5, 5, [&](std::size_t) { ++calls; });
  parallel_for(pool, 7, 3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, NonZeroBegin) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  parallel_for(pool, 10, 20, [&](std::size_t i) { sum += static_cast<long>(i); });
  EXPECT_EQ(sum.load(), 145);  // 10+..+19
}

TEST(ParallelFor, DeterministicResultSlots) {
  ThreadPool pool(6);
  const std::size_t n = 5000;
  std::vector<double> out_a(n), out_b(n);
  const auto body = [](std::size_t i) {
    return static_cast<double>(i) * 1.5 + 1.0;
  };
  parallel_for(pool, 0, n, [&](std::size_t i) { out_a[i] = body(i); });
  parallel_for(pool, 0, n, [&](std::size_t i) { out_b[i] = body(i); });
  EXPECT_EQ(out_a, out_b);
}

TEST(ParallelFor, PropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(pool, 0, 100,
                   [&](std::size_t i) {
                     if (i == 57) throw std::runtime_error("body failed");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::vector<int> hits(64, 0);
  parallel_for(pool, 0, 64, [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 64);
}

TEST(ParallelFor, MinBlockHonoursSerialFallback) {
  ThreadPool pool(4);
  // min_block >= n forces the serial path; result must be identical.
  std::vector<int> hits(32, 0);
  parallel_for(pool, 0, 32, [&](std::size_t i) { ++hits[i]; }, 32);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, GlobalPoolConvenience) {
  std::atomic<int> counter{0};
  parallel_for(0, 100, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ParallelFor, NestedSubmissionDoesNotDeadlock) {
  // Submitting new work from within a task (not waiting on it inside the
  // task) must not deadlock.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> inner;
  std::mutex m;
  parallel_for(pool, 0, 8, [&](std::size_t) {
    auto fut = pool.submit([&counter] { ++counter; });
    std::lock_guard lock(m);
    inner.push_back(std::move(fut));
  });
  for (auto& f : inner) f.get();
  EXPECT_EQ(counter.load(), 8);
}

}  // namespace
}  // namespace phonolid::util
