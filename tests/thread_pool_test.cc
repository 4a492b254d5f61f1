#include "src/util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace litereconfig {
namespace {

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const std::atomic<int>& hit : hits) {
    EXPECT_EQ(hit.load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForWritesResultsInIndexOrder) {
  ThreadPool pool(4);
  std::vector<size_t> out(512, 0);
  pool.ParallelFor(out.size(), [&](size_t i) { out[i] = i * i; });
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i * i);
  }
}

TEST(ThreadPoolTest, ParallelMapPreservesIndexOrder) {
  ThreadPool pool(3);
  std::vector<int> mapped =
      pool.ParallelMap(100, [](size_t i) { return static_cast<int>(2 * i + 1); });
  ASSERT_EQ(mapped.size(), 100u);
  for (size_t i = 0; i < mapped.size(); ++i) {
    EXPECT_EQ(mapped[i], static_cast<int>(2 * i + 1));
  }
}

TEST(ThreadPoolTest, ZeroIterationsIsANoOp) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL() << "body must not run"; });
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0);
  std::atomic<int> sum{0};
  pool.ParallelFor(10, [&](size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolTest, MaxParallelismOneRunsInlineAndSequentially) {
  ThreadPool pool(4);
  std::vector<size_t> order;
  pool.ParallelFor(
      16, [&](size_t i) { order.push_back(i); }, /*max_parallelism=*/1);
  std::vector<size_t> expected(16);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);  // no data race: single participant, in order
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(100,
                       [](size_t i) {
                         if (i == 37) {
                           throw std::runtime_error("boom at 37");
                         }
                       }),
      std::runtime_error);
}

TEST(ThreadPoolTest, ExceptionMessageComesFromTheThrowingIndex) {
  ThreadPool pool(2);
  try {
    pool.ParallelFor(64, [](size_t i) {
      if (i == 5) {
        throw std::runtime_error("only-five-throws");
      }
    });
    FAIL() << "expected the body's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "only-five-throws");
  }
}

TEST(ThreadPoolTest, PoolStaysUsableAfterAnException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(8, [](size_t) { throw std::runtime_error("x"); }),
               std::runtime_error);
  std::atomic<int> count{0};
  pool.ParallelFor(50, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, NestedParallelForCompletesWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.ParallelFor(8, [&](size_t) {
    // A worker issuing a nested loop runs it inline; no task cycle, no hang.
    pool.ParallelFor(8, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolTest, NestedParallelMapReturnsCorrectValues) {
  ThreadPool pool(3);
  std::vector<int> outer = pool.ParallelMap(6, [&](size_t i) {
    std::vector<int> inner =
        pool.ParallelMap(5, [&](size_t j) { return static_cast<int>(i * 5 + j); });
    return std::accumulate(inner.begin(), inner.end(), 0);
  });
  for (size_t i = 0; i < outer.size(); ++i) {
    int base = static_cast<int>(i) * 25;
    EXPECT_EQ(outer[i], base + 10);  // 0+1+2+3+4 offsets
  }
}

TEST(ThreadPoolTest, DefaultThreadCountOverrideAndReset) {
  int automatic = DefaultThreadCount();
  EXPECT_GE(automatic, 1);
  SetDefaultThreadCount(7);
  EXPECT_EQ(DefaultThreadCount(), 7);
  EXPECT_EQ(ResolveThreadCount(0), 7);
  EXPECT_EQ(ResolveThreadCount(3), 3);
  SetDefaultThreadCount(0);
  EXPECT_EQ(DefaultThreadCount(), automatic);
}

TEST(ThreadPoolTest, ApplyThreadsFlagParsesBothForms) {
  SetDefaultThreadCount(0);
  const char* eq_form[] = {"prog", "--threads=5"};
  EXPECT_EQ(ApplyThreadsFlag(2, eq_form), 5);
  const char* sep_form[] = {"prog", "--threads", "9"};
  EXPECT_EQ(ApplyThreadsFlag(3, sep_form), 9);
  SetDefaultThreadCount(0);
}

TEST(ThreadPoolTest, SharedPoolSupportsExplicitThreadRequests) {
  // The shared pool never has fewer than 3 workers, so threads=4 exercises
  // real concurrency even on single-core machines.
  EXPECT_GE(ThreadPool::Shared().num_workers(), 3);
  std::vector<size_t> out(256, 0);
  ThreadPool::Shared().ParallelFor(
      out.size(), [&](size_t i) { out[i] = i + 1; }, /*max_parallelism=*/4);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i + 1);
  }
}

}  // namespace
}  // namespace litereconfig
