// ripple::serve — deadline-driven cross-thread request batching.
//
// InferenceSession::predict_many coalesces requests only when a single
// caller assembles the vector; independent client threads each pay a full
// Monte-Carlo forward, wasting the batched-replica speedups. AsyncBatcher
// closes that gap: clients submit() individual requests and get a
// std::future; worker threads drain a shared queue and dispatch coalesced
// batches through the session under a (max_batch, max_delay) policy —
//
//   • a batch goes out as soon as `batch_max_requests` requests are
//     queued, or
//   • when the earliest queued dispatch trigger — min(enqueue time +
//     `batch_max_delay_us`, the request's hard deadline) — passes,
//     whichever comes first;
//   • close() drains: everything already queued is dispatched immediately
//     (deadlines ignored), then the workers join. submit() after close()
//     throws — requests are never silently dropped.
//
// Batches run through the session's predict_many path. For the proposed
// variant served without activation noise — the paper's deployment
// configuration — the mask streams are row-independent, coalescing is
// pure batch assembly, and per-request results are bit-exact against the
// single-thread predict oracle (tests/batcher_test.cpp asserts this for
// all four task kinds). Row-dependent draws (element/spatial MC-Dropout
// masks, stream-bound activation noise) instead depend on where a
// request's rows land in the coalesced batch, so those configurations
// get a different — equally valid, per-batch deterministic — Monte-Carlo
// draw than a solo predict(): the same caveat a caller-assembled
// predict_many already carries (see SessionOptions::max_batch).
//
// Mixed-shape traffic is grouped: a dispatch takes the oldest request plus
// every queued request with the same per-row shape (FIFO within the
// group); other shapes stay queued for the next dispatch. If a coalesced
// forward throws, the batch is retried request-by-request so the
// exception reaches only the offending request's future — batchmates
// still complete.
//
// Mixed-*size* traffic sizes batches in rows, not just requests: with
// `batch_max_rows` set, a batch also dispatches once the queued rows reach
// the bound, and coalescing stops before a request would push the
// dispatched rows past it (a single oversized request still goes out
// alone — it is the session's max_batch chunking's job to split it).
// With the knob at 0 (default) only batch_max_requests sizes batches.
//
// Per-request *hard* deadlines are separate from the coalescing delay:
// submit(x, timeout) stamps the request with an absolute deadline, and a
// request whose deadline has already expired when a worker dispatches it
// is failed with ServeError{Status::kTimeout} instead of being served late
// (BatcherCounters::timeouts counts these; an expired request also wakes
// the worker no later than its deadline, so the typed failure is prompt).
// A request that starts executing in time but finishes late is still
// served — dispatch is the cancellation point, not the forward.
//
// Failures on the submit path are typed (serve/status.h): submit() after
// close() throws ServeError{Status::kClosed}. Exceptions thrown by the
// session itself (precondition violations — bad shapes, wrong task kind)
// keep their own type and are delivered through the offending request's
// future, as before.
//
// Thread safety: submit/submit_many/close may be called from any thread.
// The batcher only *reads* the session (predict_many is const and
// thread-safe), so serving through a batcher and calling session.predict
// directly from other threads at the same time is fine.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/metrics.h"
#include "serve/session.h"
#include "serve/status.h"
#include "serve/trace.h"

namespace ripple::serve {

/// Asynchronous batching front door over one InferenceSession. The
/// session (which must outlive the batcher) supplies the policy knobs via
/// SessionOptions: batch_max_requests, batch_max_delay_us,
/// batcher_threads.
class AsyncBatcher {
 public:
  explicit AsyncBatcher(const InferenceSession& session);
  /// Destruction closes: drains the queue, then joins the workers.
  ~AsyncBatcher();
  AsyncBatcher(const AsyncBatcher&) = delete;
  AsyncBatcher& operator=(const AsyncBatcher&) = delete;

  /// Enqueues one request batch x [N, ...] and returns the future of its
  /// prediction (the same typed result session.predict(x) yields).
  /// Throws ServeError{Status::kClosed} after close().
  std::future<Prediction> submit(Tensor input);

  /// Same, with a hard per-request deadline `timeout` from now: if the
  /// deadline has expired by the time a worker dispatches the request, its
  /// future fails with ServeError{Status::kTimeout} instead of being
  /// served late. timeout <= 0 means already expired.
  std::future<Prediction> submit(Tensor input,
                                 std::chrono::microseconds timeout);

  /// Same, carrying an upstream trace context (serve/trace.h): the batcher
  /// appends queue-wait/batch-assembly/execute/resolve spans to it, and
  /// finishes it after resolving the promise when the context is
  /// batcher-owned. Null `tctx` with tracing enabled self-creates one, so
  /// direct batcher users get timelines without a ModelServer in front.
  std::future<Prediction> submit(Tensor input,
                                 std::chrono::microseconds timeout,
                                 trace::TraceContextPtr tctx);
  /// Traced submit without a hard deadline.
  std::future<Prediction> submit(Tensor input, trace::TraceContextPtr tctx);

  /// Enqueues several requests at once (they may still be split across
  /// dispatched batches); one future per request, in order.
  std::vector<std::future<Prediction>> submit_many(std::vector<Tensor> inputs);

  /// Instrumentation/chaos seam: `hook(rows)` runs inside a worker thread
  /// immediately before each coalesced forward (and before each forward of
  /// the per-request retry path). An exception it throws is delivered
  /// exactly like a session exception — to the offending request's future
  /// after the per-request retry. The cluster chaos harness injects
  /// replica crashes (hook throws) and stalls (hook sleeps) here. Pass an
  /// empty function to clear. Takes effect from the next dispatched batch.
  void set_forward_hook(std::function<void(int64_t rows)> hook);

  /// Idempotent graceful shutdown: already-queued requests are dispatched
  /// (deadlines ignored), workers join, later submits are rejected.
  void close();
  bool closed() const;

  const InferenceSession& session() const { return session_; }
  const BatcherCounters& counters() const { return counters_; }
  int64_t max_batch() const { return max_batch_; }
  /// Rows bound per dispatched batch (0 = unbounded, requests-only sizing).
  int64_t max_rows() const { return max_rows_; }
  int64_t max_delay_us() const { return max_delay_.count(); }
  int workers() const { return static_cast<int>(worker_count_); }

 private:
  struct Pending {
    Tensor input;
    std::promise<Prediction> promise;
    /// Dispatch trigger: enqueue + coalescing delay, clamped to the hard
    /// deadline so expired requests surface (and fail) promptly.
    std::chrono::steady_clock::time_point deadline;
    std::chrono::steady_clock::time_point enqueue;
    /// Absolute per-request deadline (time_point::max() = none).
    std::chrono::steady_clock::time_point hard_deadline;
    /// Trace context (null when tracing is off or the request is untraced).
    trace::TraceContextPtr trace;
  };

  /// Common submit path; hard_deadline = time_point::max() for none.
  std::future<Prediction> enqueue(
      Tensor input, std::chrono::steady_clock::time_point hard_deadline,
      trace::TraceContextPtr tctx = nullptr);

  void worker_loop();
  /// Pops the dispatch group (oldest request + same-per-row-shape
  /// followers, ≤ max_batch_). Caller holds mutex_.
  std::vector<Pending> take_batch();
  /// Removes every hard-expired request from the queue — any position,
  /// any shape — updating queued_rows_ and the queue-depth counter
  /// (BatcherCounters::on_expire): a request rejected on deadline leaves
  /// the queue accounting exactly like a dispatched one. Caller holds
  /// mutex_; the returned requests' futures are failed by fail_expired()
  /// after unlocking.
  std::vector<Pending> sweep_expired(
      std::chrono::steady_clock::time_point now);
  /// Fails swept requests with the typed timeout and counts them
  /// (timeouts + completed). No locks held.
  void fail_expired(std::vector<Pending>& expired);
  /// Runs one dispatched group and fulfills its promises. No locks held.
  void run_batch(std::vector<Pending>& batch);

  const InferenceSession& session_;
  const int64_t max_batch_;
  const int64_t max_rows_;
  const std::chrono::microseconds max_delay_;
  const size_t worker_count_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  int64_t queued_rows_ = 0;  // rows across queue_, guarded by mutex_
  bool closed_ = false;
  std::vector<std::thread> workers_;
  std::mutex join_mutex_;  // serializes concurrent close() calls

  std::mutex hook_mutex_;
  std::function<void(int64_t)> forward_hook_;

  BatcherCounters counters_;
};

}  // namespace ripple::serve
