#include "tensor/threadpool.h"

#include <algorithm>

#include "tensor/check.h"
#include "tensor/env.h"

namespace ripple {
namespace {

// Set while a thread executes chunks of a parallel region; nested
// parallel_run calls from such a thread run inline.
thread_local bool tl_in_parallel = false;

struct InParallelScope {
  // Save/restore (not set/clear): nested inline parallel_for calls create
  // nested scopes on the region-owning thread, and the flag must survive
  // until the outermost scope exits (a cleared flag would let a later
  // nested call try_lock the run_mutex_ its own thread already holds).
  bool previous = tl_in_parallel;
  InParallelScope() { tl_in_parallel = true; }
  ~InParallelScope() { tl_in_parallel = previous; }
};

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  RIPPLE_CHECK(num_threads >= 1) << "pool needs >= 1 thread";
  // With one thread, loops run inline; no workers are spawned.
  if (num_threads == 1) return;
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_job_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_task_chunks() {
  InParallelScope scope;
  const int64_t n = task_n_;
  const int64_t chunk = task_chunk_;
  const LoopRef body = task_body_;
  for (;;) {
    const int64_t begin = task_next_.fetch_add(chunk, std::memory_order_relaxed);
    if (begin >= n) break;
    const int64_t end = std::min(n, begin + chunk);
    try {
      body(begin, end);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(task_error_mutex_);
        if (!task_error_) task_error_ = std::current_exception();
      }
      // Abandon the remaining chunks; participants drain out.
      task_next_.store(n, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::worker_loop() {
  uint64_t seen_epoch = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_job_.wait(lock, [&] {
      return stop_ || (task_active_ && task_epoch_ != seen_epoch);
    });
    if (stop_) return;
    // Join the active parallel region (at most once per epoch).
    seen_epoch = task_epoch_;
    ++task_running_;
    lock.unlock();
    run_task_chunks();
    lock.lock();
    --task_running_;
    if (task_running_ == 0) cv_done_.notify_all();
  }
}

void ThreadPool::parallel_run(int64_t n, int64_t grain, LoopRef body) {
  if (n <= 0) return;
  grain = std::max<int64_t>(1, grain);
  if (workers_.empty() || n <= grain || tl_in_parallel) {
    InParallelScope scope;
    body(0, n);
    return;
  }
  std::unique_lock<std::mutex> region(run_mutex_, std::try_to_lock);
  if (!region.owns_lock()) {
    // Another thread's parallel region is active; run inline rather than
    // blocking (keeps concurrent callers deadlock-free).
    InParallelScope scope;
    body(0, n);
    return;
  }
  // ~4 chunks per participant give dynamic balancing without excessive
  // atomic traffic.
  const int64_t participants = size() + 1;
  const int64_t chunk =
      std::max(grain, (n + participants * 4 - 1) / (participants * 4));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    task_body_ = body;
    task_n_ = n;
    task_chunk_ = chunk;
    task_next_.store(0, std::memory_order_relaxed);
    task_error_ = nullptr;
    task_active_ = true;
    ++task_epoch_;
  }
  cv_job_.notify_all();
  run_task_chunks();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_done_.wait(lock, [this] {
      return task_next_.load(std::memory_order_relaxed) >= task_n_ &&
             task_running_ == 0;
    });
    task_active_ = false;
    task_body_ = LoopRef{};
  }
  if (task_error_) std::rethrow_exception(task_error_);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    return env_int("RIPPLE_THREADS", std::max(1, hw));
  }());
  return pool;
}

}  // namespace ripple
