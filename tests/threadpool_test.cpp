#include "tensor/threadpool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "tensor/check.h"

namespace ripple {
namespace {

/// Non-owning LoopRef over a callable that outlives the parallel_run call.
template <typename F>
ThreadPool::LoopRef loop_ref(const F& body) {
  return {[](const void* ctx, int64_t begin, int64_t end) {
            (*static_cast<const F*>(ctx))(begin, end);
          },
          &body};
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 0);  // no workers spawned
  const std::thread::id caller = std::this_thread::get_id();
  int chunks = 0;
  const auto body = [&](int64_t begin, int64_t end) {
    ++chunks;
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 100);
  };
  pool.parallel_run(100, /*grain=*/1, loop_ref(body));
  EXPECT_EQ(chunks, 1);  // one inline chunk despite grain 1
}

TEST(ThreadPool, MultiThreadRunsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  const auto body = [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) ++hits[static_cast<size_t>(i)];
  };
  pool.parallel_run(100, /*grain=*/1, loop_ref(body));
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelRunIsReusable) {
  ThreadPool pool(2);
  std::atomic<int64_t> counter{0};
  const auto body = [&](int64_t begin, int64_t end) { counter += end - begin; };
  pool.parallel_run(64, /*grain=*/1, loop_ref(body));
  EXPECT_EQ(counter.load(), 64);
  pool.parallel_run(64, /*grain=*/1, loop_ref(body));
  EXPECT_EQ(counter.load(), 128);
}

TEST(ThreadPool, ZeroThreadsThrows) {
  EXPECT_THROW(ThreadPool pool(0), CheckError);
}

TEST(ParallelFor, CoversWholeRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) ++hits[static_cast<size_t>(i)];
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(0, [&](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SmallRangeRunsSerial) {
  // n <= grain runs inline as one chunk.
  int chunks = 0;
  parallel_for(
      10, [&](int64_t begin, int64_t end) {
        ++chunks;
        EXPECT_EQ(begin, 0);
        EXPECT_EQ(end, 10);
      },
      1024);
  EXPECT_EQ(chunks, 1);
}

TEST(ParallelFor, NestedCallsRunInline) {
  // A body that itself calls parallel_for must not deadlock and must cover
  // both ranges exactly once (inner calls run inline in the worker).
  std::vector<std::atomic<int>> hits(64 * 64);
  parallel_for(
      64,
      [&](int64_t ob, int64_t oe) {
        for (int64_t i = ob; i < oe; ++i)
          parallel_for(
              64,
              [&, i](int64_t ib, int64_t ie) {
                for (int64_t j = ib; j < ie; ++j)
                  ++hits[static_cast<size_t>(i * 64 + j)];
              },
              /*grain=*/1);
      },
      /*grain=*/1);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ConcurrentCallersDoNotDeadlock) {
  // Several user threads issuing parallel_for at once: the loser of the
  // region lock runs inline; all ranges complete exactly once.
  constexpr int kThreads = 4;
  constexpr int64_t kN = 2000;
  std::vector<std::vector<std::atomic<int>>> hits(kThreads);
  for (auto& h : hits) {
    std::vector<std::atomic<int>> fresh(kN);
    h.swap(fresh);
  }
  std::vector<std::thread> threads;
  for (int tix = 0; tix < kThreads; ++tix)
    threads.emplace_back([&, tix] {
      for (int rep = 0; rep < 20; ++rep)
        parallel_for(
            kN,
            [&, tix](int64_t begin, int64_t end) {
              for (int64_t i = begin; i < end; ++i)
                ++hits[static_cast<size_t>(tix)][static_cast<size_t>(i)];
            },
            /*grain=*/16);
    });
  for (auto& t : threads) t.join();
  for (auto& per_thread : hits)
    for (auto& h : per_thread) EXPECT_EQ(h.load(), 20);
}

TEST(ParallelFor, BodyExceptionPropagatesToCaller) {
  EXPECT_THROW(
      parallel_for(
          512,
          [](int64_t begin, int64_t) {
            if (begin == 0) throw CheckError("boom");
          },
          /*grain=*/1),
      CheckError);
}

TEST(ParallelFor, ManySmallLoopsStress) {
  // Fork-join overhead path: thousands of tiny regions in a row.
  std::atomic<int64_t> total{0};
  for (int rep = 0; rep < 2000; ++rep)
    parallel_for(
        64, [&](int64_t begin, int64_t end) { total += end - begin; },
        /*grain=*/4);
  EXPECT_EQ(total.load(), 2000 * 64);
}

TEST(ParallelFor, SumMatchesSerial) {
  std::vector<int64_t> values(5000);
  std::iota(values.begin(), values.end(), 0);
  std::atomic<int64_t> total{0};
  parallel_for(
      static_cast<int64_t>(values.size()),
      [&](int64_t begin, int64_t end) {
        int64_t local = 0;
        for (int64_t i = begin; i < end; ++i)
          local += values[static_cast<size_t>(i)];
        total += local;
      },
      64);
  EXPECT_EQ(total.load(), 5000LL * 4999 / 2);
}

}  // namespace
}  // namespace ripple
