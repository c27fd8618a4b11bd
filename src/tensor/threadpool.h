// Persistent-worker thread pool with a low-overhead parallel_for.
//
// parallel_for runs through a persistent parallel region: the calling
// thread publishes one task descriptor, wakes the workers once, and every
// participant (workers + caller) claims chunks from a single atomic
// counter. A fork-join costs one condition-variable broadcast plus a
// handful of atomic fetch-adds.
//
// Whether a loop is worth that cost is decided by one rule, from the
// caller's estimate of the work per index (≈ FLOPs for compute-bound
// loops, bytes moved for memory-bound ones): a loop whose total work is
// below kMinParallelWork runs inline as one chunk, and above it every
// chunk carries at least kMinParallelWork. Call sites state their work and
// never pick a grain.
//
// Nested parallel_for calls run inline in the calling worker (no deadlock,
// no oversubscription); concurrent parallel_for calls from different
// threads serialize by letting the loser run its range inline. On
// single-core machines (or with RIPPLE_THREADS=1) parallel_for degrades to
// an inline serial loop with zero synchronization overhead.
//
// Workers start at the pool's first parallel region, not at construction:
// a process whose loops all run inline stays single-threaded, and keeps
// the C library's and libstdc++'s single-threaded fast paths (plain
// shared_ptr reference counts, unlocked malloc).
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
  /// Estimated work (≈ FLOPs, or bytes moved) one chunk must carry before
  /// waking the pool pays off. Measured from the pool's fork-join cost on
  /// a 4-core AVX-512 Xeon (BM_PoolForkJoin vs BM_PoolWorkUnit in
  /// bench/perf_layers.cpp; docs/PERF.md "Thread pool"): one fork-join
  /// costs ~4 µs, what one core spends on ~2^17 FLOPs or ~2^18 bytes, so
  /// a chunk of 2^19 units is 2–4× the wake-up it pays for.
  static constexpr int64_t kMinParallelWork = int64_t{1} << 19;

  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker threads this pool runs its regions on (started at the first
  /// region; the caller is one more participant).
  int size() const { return num_workers_; }

  /// True once the workers have been started (at the first parallel
  /// region).
  bool started() const;

  /// Parallel regions this pool has opened (loops that ran inline do not
  /// count).
  uint64_t regions() const;

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

  /// Runs body over [0, n), where each index costs about `work_per_index`
  /// units. Below kMinParallelWork of total work — or when the pool has no
  /// workers, the caller is already inside a parallel region, or another
  /// thread holds the region — body(0, n) runs inline on the caller.
  /// Otherwise [0, n) is cut into contiguous chunks of at least
  /// kMinParallelWork each (at most ~4 per participant) that workers and
  /// the caller claim from an atomic counter. Blocks until the whole range
  /// is processed; the first exception thrown by any chunk is rethrown here
  /// (remaining chunks are abandoned).
  void parallel_run(int64_t n, int64_t work_per_index, LoopRef body);

  /// Process-wide pool sized from RIPPLE_THREADS (default:
  /// hardware_concurrency).
  static ThreadPool& global();

 private:
  /// Spawns the workers; called by the region owner under run_mutex_.
  void start_workers();
  void worker_loop();
  /// Claims and runs chunks of the active task until the range is
  /// exhausted. Marks the calling thread as inside a parallel region.
  void run_task_chunks();

  const int num_workers_;
  std::vector<std::thread> workers_;

  // Active parallel-region descriptor. Written by parallel_run under
  // mutex_; next chunk claimed lock-free. Chunk c covers
  // [c·n/chunks, (c+1)·n/chunks).
  LoopRef task_body_{};
  std::atomic<int64_t> task_next_{0};
  int64_t task_n_ = 0;
  int64_t task_chunks_ = 1;
  uint64_t task_epoch_ = 0;
  int task_running_ = 0;  // workers currently executing chunks
  bool task_active_ = false;
  std::exception_ptr task_error_;
  std::mutex task_error_mutex_;

  mutable std::mutex mutex_;
  std::condition_variable cv_job_;
  std::condition_variable cv_done_;
  bool stop_ = false;

  // Owned by the thread whose parallel_run is active; contenders that fail
  // try_lock run their range inline instead of blocking.
  std::mutex run_mutex_;
};

/// Runs body(begin, end) over contiguous chunks of [0, n) on the global
/// pool, where each index costs about `work_per_index` units (≈ FLOPs or
/// bytes moved; see ThreadPool::kMinParallelWork). Accepts any callable;
/// no heap allocation (the body is passed by reference through a LoopRef
/// trampoline, never type-erased into std::function).
template <typename F>
void parallel_for(int64_t n, int64_t work_per_index, const F& body) {
  ThreadPool::LoopRef ref{
      [](const void* ctx, int64_t begin, int64_t end) {
        (*static_cast<const F*>(ctx))(begin, end);
      },
      &body};
  ThreadPool::global().parallel_run(n, work_per_index, ref);
}

}  // namespace ripple
