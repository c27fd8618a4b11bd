// Persistent-worker thread pool with a low-overhead parallel_for.
//
// parallel_for runs through a persistent parallel region: the calling
// thread publishes one task descriptor, wakes the workers once, and every
// participant (workers + caller) claims chunked index ranges from a single
// atomic counter. Compared to the previous design (one heap-allocated
// std::function enqueued per chunk through a mutex-guarded queue), a
// fork-join costs one condition-variable broadcast plus a handful of atomic
// fetch-adds, so fine-grained loops (GEMM row panels, per-sample im2col)
// stop paying per-chunk queueing overhead.
//
// Nested parallel_for calls run inline in the calling worker (no deadlock,
// no oversubscription); concurrent parallel_for calls from different
// threads serialize by letting the loser run its range inline. On
// single-core machines (or with RIPPLE_THREADS=1) parallel_for degrades to
// an inline serial loop with zero synchronization overhead.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace ripple {

/// Fixed-size pool of persistent worker threads.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Non-owning loop body: a plain function pointer plus the address of the
  /// caller's callable. parallel_run used to take std::function, which heap-
  /// allocates at every call site whose lambda captures more than two
  /// pointers — measurable on the zero-alloc compiled serving path. The
  /// callable must outlive the parallel_run call (parallel_for guarantees
  /// this by taking the body by const reference).
  struct LoopRef {
    void (*fn)(const void* ctx, int64_t begin, int64_t end) = nullptr;
    const void* ctx = nullptr;
    void operator()(int64_t begin, int64_t end) const { fn(ctx, begin, end); }
  };

  /// Runs body over [0, n) split into chunks of at least `grain` indices,
  /// distributed to workers via an atomic claim counter. The calling thread
  /// participates. Blocks until the whole range is processed; the first
  /// exception thrown by any chunk is rethrown here (remaining chunks are
  /// abandoned). Runs inline when the pool has no workers, n <= grain, the
  /// caller is already inside a parallel region, or another thread holds
  /// the region.
  void parallel_run(int64_t n, int64_t grain, LoopRef body);

  /// Process-wide pool sized from RIPPLE_THREADS (default:
  /// hardware_concurrency).
  static ThreadPool& global();

 private:
  void worker_loop();
  /// Claims and runs chunks of the active task until the range is
  /// exhausted. Marks the calling thread as inside a parallel region.
  void run_task_chunks();

  std::vector<std::thread> workers_;

  // Active parallel-region descriptor. Written by parallel_run under
  // mutex_; next index claimed lock-free.
  LoopRef task_body_{};
  std::atomic<int64_t> task_next_{0};
  int64_t task_n_ = 0;
  int64_t task_chunk_ = 1;
  uint64_t task_epoch_ = 0;
  int task_running_ = 0;  // workers currently executing chunks
  bool task_active_ = false;
  std::exception_ptr task_error_;
  std::mutex task_error_mutex_;

  std::mutex mutex_;
  std::condition_variable cv_job_;
  std::condition_variable cv_done_;
  bool stop_ = false;

  // Owned by the thread whose parallel_run is active; contenders that fail
  // try_lock run their range inline instead of blocking.
  std::mutex run_mutex_;
};

/// Splits [0, n) into contiguous chunks and runs body(begin, end) on the
/// global pool. Serial when the pool has one thread or n is small.
/// Accepts any callable; no heap allocation (the body is passed by
/// reference through a LoopRef trampoline, never type-erased into
/// std::function).
template <typename F>
void parallel_for(int64_t n, const F& body, int64_t grain = 1024) {
  ThreadPool::LoopRef ref{
      [](const void* ctx, int64_t begin, int64_t end) {
        (*static_cast<const F*>(ctx))(begin, end);
      },
      &body};
  ThreadPool::global().parallel_run(n, grain, ref);
}

}  // namespace ripple
