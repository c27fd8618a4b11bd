#include "tensor/threadpool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
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

constexpr int64_t kMin = ThreadPool::kMinParallelWork;

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
  pool.parallel_run(100, /*work_per_index=*/kMin, loop_ref(body));
  EXPECT_EQ(chunks, 1);  // one inline chunk despite ample work
  EXPECT_EQ(pool.regions(), 0u);
}

TEST(ThreadPool, WorkBelowThresholdRunsInlineWithoutWaking) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  // Total work just under the threshold, and a total that cannot fill two
  // chunks of the threshold: both run as one inline chunk.
  for (const int64_t work : {(kMin - 1) / 1000, (2 * kMin - 1) / 1000}) {
    std::vector<std::pair<int64_t, int64_t>> chunks;
    const auto body = [&](int64_t begin, int64_t end) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      chunks.emplace_back(begin, end);
    };
    pool.parallel_run(1000, work, loop_ref(body));
    ASSERT_EQ(chunks.size(), 1u) << "work per index " << work;
    EXPECT_EQ(chunks[0], std::make_pair(int64_t{0}, int64_t{1000}));
  }
  EXPECT_EQ(pool.regions(), 0u);  // no worker was ever woken
}

TEST(ThreadPool, WorkersStartAtFirstParallelRegion) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  EXPECT_FALSE(pool.started());
  int64_t sum = 0;
  const auto inline_body = [&](int64_t begin, int64_t end) {
    sum += end - begin;
  };
  pool.parallel_run(1000, /*work_per_index=*/1, loop_ref(inline_body));
  EXPECT_FALSE(pool.started());  // an inline loop starts no thread
  std::atomic<int64_t> count{0};
  const auto body = [&](int64_t begin, int64_t end) { count += end - begin; };
  pool.parallel_run(64, /*work_per_index=*/kMin, loop_ref(body));
  EXPECT_TRUE(pool.started());
  EXPECT_EQ(pool.size(), 4);
  EXPECT_EQ(sum + count.load(), 1064);
  pool.parallel_run(64, /*work_per_index=*/kMin, loop_ref(body));
  EXPECT_EQ(count.load(), 128);
  EXPECT_EQ(pool.regions(), 2u);
}

TEST(ThreadPool, WorkAboveThresholdSplitsIntoThresholdChunks) {
  ThreadPool pool(4);
  for (const int64_t n : {int64_t{2}, int64_t{7}, int64_t{1000}, int64_t{4099}}) {
    for (const int64_t work :
         {kMin, kMin / 3, kMin / 7 + 1, 3 * kMin / n + 1}) {
      // Whole indices of `work` each must fill two chunks of kMin.
      if (n / ((kMin + work - 1) / work) < 2) continue;
      std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
      std::mutex mu;
      std::vector<int64_t> sizes;
      const auto body = [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) ++hits[static_cast<size_t>(i)];
        std::lock_guard<std::mutex> lock(mu);
        sizes.push_back(end - begin);
      };
      const uint64_t before = pool.regions();
      pool.parallel_run(n, work, loop_ref(body));
      EXPECT_EQ(pool.regions(), before + 1) << n << " x " << work;
      for (auto& h : hits) EXPECT_EQ(h.load(), 1) << n << " x " << work;
      EXPECT_GE(sizes.size(), 2u);
      EXPECT_LE(sizes.size(), 4u * 5u);  // ~4 chunks per participant
      for (const int64_t size : sizes)
        EXPECT_GE(size * work, kMin) << n << " x " << work;
    }
  }
}

TEST(ThreadPool, MultiThreadRunsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  const auto body = [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) ++hits[static_cast<size_t>(i)];
  };
  pool.parallel_run(100, /*work_per_index=*/kMin, loop_ref(body));
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelRunIsReusable) {
  ThreadPool pool(2);
  std::atomic<int64_t> counter{0};
  const auto body = [&](int64_t begin, int64_t end) { counter += end - begin; };
  pool.parallel_run(64, /*work_per_index=*/kMin, loop_ref(body));
  EXPECT_EQ(counter.load(), 64);
  pool.parallel_run(64, /*work_per_index=*/kMin, loop_ref(body));
  EXPECT_EQ(counter.load(), 128);
  EXPECT_EQ(pool.regions(), 2u);
}

TEST(ThreadPool, ZeroThreadsThrows) {
  EXPECT_THROW(ThreadPool pool(0), CheckError);
}

TEST(ParallelFor, CoversWholeRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, kMin / 16, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) ++hits[static_cast<size_t>(i)];
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(0, kMin, [&](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SmallWorkRunsSerial) {
  int chunks = 0;
  parallel_for(10, /*work_per_index=*/1, [&](int64_t begin, int64_t end) {
    ++chunks;
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 10);
  });
  EXPECT_EQ(chunks, 1);
}

TEST(ParallelFor, NestedCallsRunInline) {
  // A body that itself calls parallel_for must not deadlock and must cover
  // both ranges exactly once (inner calls run inline in the worker).
  std::vector<std::atomic<int>> hits(64 * 64);
  parallel_for(64, kMin, [&](int64_t ob, int64_t oe) {
    for (int64_t i = ob; i < oe; ++i)
      parallel_for(64, kMin, [&, i](int64_t ib, int64_t ie) {
        for (int64_t j = ib; j < ie; ++j)
          ++hits[static_cast<size_t>(i * 64 + j)];
      });
  });
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
        parallel_for(kN, kMin / 16, [&, tix](int64_t begin, int64_t end) {
          for (int64_t i = begin; i < end; ++i)
            ++hits[static_cast<size_t>(tix)][static_cast<size_t>(i)];
        });
    });
  for (auto& t : threads) t.join();
  for (auto& per_thread : hits)
    for (auto& h : per_thread) EXPECT_EQ(h.load(), 20);
}

TEST(ParallelFor, BodyExceptionPropagatesToCaller) {
  EXPECT_THROW(
      parallel_for(512, kMin,
                   [](int64_t begin, int64_t) {
                     if (begin == 0) throw CheckError("boom");
                   }),
      CheckError);
}

TEST(ParallelFor, ManySmallLoopsStress) {
  // Fork-join overhead path: thousands of tiny regions in a row.
  std::atomic<int64_t> total{0};
  for (int rep = 0; rep < 2000; ++rep)
    parallel_for(64, kMin / 4,
                 [&](int64_t begin, int64_t end) { total += end - begin; });
  EXPECT_EQ(total.load(), 2000 * 64);
}

TEST(ParallelFor, SumMatchesSerial) {
  std::vector<int64_t> values(5000);
  std::iota(values.begin(), values.end(), 0);
  std::atomic<int64_t> total{0};
  parallel_for(static_cast<int64_t>(values.size()), kMin / 64,
               [&](int64_t begin, int64_t end) {
                 int64_t local = 0;
                 for (int64_t i = begin; i < end; ++i)
                   local += values[static_cast<size_t>(i)];
                 total += local;
               });
  EXPECT_EQ(total.load(), 5000LL * 4999 / 2);
}

}  // namespace
}  // namespace ripple
