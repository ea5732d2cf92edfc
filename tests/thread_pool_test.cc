#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

namespace webdex::common {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ReturnsTaskResults) {
  ThreadPool pool(3);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPoolTest, PropagatesExceptionsThroughFutures) {
  ThreadPool pool(2);
  auto ok = pool.Submit([] { return std::string("fine"); });
  auto bad = pool.Submit([]() -> std::string {
    throw std::runtime_error("task failed");
  });
  EXPECT_EQ(ok.get(), "fine");
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The pool survives a throwing task and keeps serving.
  EXPECT_EQ(pool.Submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  EXPECT_EQ(pool.Submit([] { return 42; }).get(), 42);
}

TEST(ThreadPoolTest, DrainsQueueOnDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      (void)pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor joins after draining
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, ParallelForRunsEveryIndexOnce) {
  ThreadPool pool(3);
  for (const size_t count : {0u, 1u, 2u, 7u, 64u}) {
    std::vector<std::atomic<int>> runs(count);
    pool.ParallelFor(count, [&runs](size_t i) { runs[i].fetch_add(1); });
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(runs[i].load(), 1) << count << " " << i;
    }
  }
}

TEST(ThreadPoolTest, ParallelForRethrowsAfterEveryIndexRan) {
  ThreadPool pool(2);
  std::atomic<int> runs{0};
  EXPECT_THROW(pool.ParallelFor(9,
                                [&runs](size_t i) {
                                  runs.fetch_add(1);
                                  if (i == 4) throw std::runtime_error("4");
                                }),
               std::runtime_error);
  EXPECT_EQ(runs.load(), 9);
}

// A ParallelFor from inside a task of the same pool, with every worker
// busy in one, completes: each caller claims the indexes no worker is
// free to take.
TEST(ThreadPoolTest, ParallelForInsideTasksOfTheSamePoolCompletes) {
  for (const int threads : {1, 2}) {
    ThreadPool& pool = ThreadPool::Shared(threads);
    std::vector<std::future<int>> callers;
    for (int t = 0; t < threads; ++t) {
      callers.push_back(pool.Submit([&pool] {
        std::atomic<int> sum{0};
        pool.ParallelFor(16, [&sum](size_t i) {
          sum.fetch_add(static_cast<int>(i));
        });
        return sum.load();
      }));
    }
    for (auto& caller : callers) EXPECT_EQ(caller.get(), 120) << threads;
  }
}

TEST(ThreadPoolTest, SharedIsOnePoolPerSize) {
  ThreadPool& three = ThreadPool::Shared(3);
  EXPECT_EQ(&ThreadPool::Shared(3), &three);
  EXPECT_EQ(three.size(), 3);
  EXPECT_NE(&ThreadPool::Shared(4), &three);
  EXPECT_EQ(&ThreadPool::Shared(0), &ThreadPool::Shared(1));
  EXPECT_EQ(ThreadPool::Shared(1).size(), 1);
  EXPECT_EQ(three.Submit([] { return 5; }).get(), 5);
}

TEST(ThreadPoolTest, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::HardwareThreads(), 1);
}

}  // namespace
}  // namespace webdex::common
