// ripple::serve — work-conserving cross-thread request batching.
//
// InferenceSession::predict_many coalesces requests only when a single
// caller assembles the vector; independent client threads each pay a full
// Monte-Carlo forward, wasting the batched-replica speedups. AsyncBatcher
// closes that gap: clients submit() individual requests — with a
// completion callback, or through the future-returning wrappers — and
// worker threads drain a shared queue and dispatch coalesced batches
// through the session:
//
//   • work-conserving by default: an idle worker takes whatever is queued
//     the moment it wakes, up to `batch_max_requests` requests (and
//     `batch_max_rows` rows). A request reaching an idle worker is served
//     alone; batches form only from requests that queue up while every
//     worker is busy inside a forward (the Clipper/Triton dynamic-batching
//     rule);
//   • `batch_max_delay_us` > 0 adds an explicit coalescing floor: a batch
//     then also waits until `batch_max_requests` requests are queued or
//     the earliest queued dispatch trigger — min(enqueue time +
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
// single-thread predict oracle whatever batch a request lands in
// (tests/batcher_test.cpp asserts this for all four task kinds).
// Row-dependent draws (element/spatial MC-Dropout masks, stream-bound
// activation noise) instead depend on where a request's rows land in the
// coalesced batch, so those configurations get a different — equally
// valid, per-batch deterministic — Monte-Carlo draw than a solo
// predict(): the same caveat a caller-assembled predict_many already
// carries (see SessionOptions::max_batch).
//
// Mixed-shape traffic is grouped: a dispatch takes the oldest request plus
// every queued request with the same per-row shape (FIFO within the
// group); other shapes stay queued for the next dispatch. If a coalesced
// forward throws, the batch is retried request-by-request so the
// exception reaches only the offending request — batchmates still
// complete.
//
// Mixed-*size* traffic sizes batches in rows, not just requests: with
// `batch_max_rows` set, coalescing stops before a request would push the
// dispatched rows past the bound (and, under a coalescing floor, a batch
// also dispatches once the queued rows reach it). A single oversized
// request still goes out alone — it is the session's max_batch chunking's
// job to split it. With the knob at 0 (default) only batch_max_requests
// sizes batches.
//
// Per-request *hard* deadlines are separate from the coalescing floor: a
// request stamped with an absolute deadline whose deadline has already
// expired when a worker dispatches it is failed with
// ServeError{Status::kTimeout} instead of being served late
// (BatcherCounters::timeouts counts these; an expired request also wakes
// the worker no later than its deadline, so the typed failure is prompt).
// A request that starts executing in time but finishes late is still
// served — dispatch is the cancellation point, not the forward.
//
// Failures on the submit path are typed (serve/status.h): submit() after
// close() throws ServeError{Status::kClosed}. Exceptions thrown by the
// session itself (precondition violations — bad shapes, wrong task kind)
// keep their own type and are delivered to the offending request's
// completion (or future), as before.
//
// Thread safety: submit/submit_many/close may be called from any thread.
// Completions run on a worker thread. The batcher only *reads* the session
// (predict_many is const and thread-safe), so serving through a batcher
// and calling session.predict directly from other threads at the same
// time is fine.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
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
/// SessionOptions: batch_max_requests, batch_max_rows, batch_max_delay_us,
/// batcher_threads.
class AsyncBatcher {
 public:
  using Clock = std::chrono::steady_clock;
  /// Completion of one request: called exactly once, on a worker thread,
  /// with the prediction, or with the exception the request failed with
  /// (`error` non-null; `result` is then empty). It must not throw, and it
  /// must not block — the worker serves the next batch only once it
  /// returns.
  using Completion =
      std::function<void(Prediction result, std::exception_ptr error)>;

  explicit AsyncBatcher(const InferenceSession& session);
  /// Destruction closes: drains the queue, then joins the workers.
  ~AsyncBatcher();
  AsyncBatcher(const AsyncBatcher&) = delete;
  AsyncBatcher& operator=(const AsyncBatcher&) = delete;

  /// The one enqueue path: queues one request batch x [N, ...] under the
  /// absolute hard deadline `hard_deadline` (Clock::time_point::max() =
  /// none) and an optional upstream trace context (serve/trace.h) — the
  /// batcher appends queue-wait/batch-assembly/execute spans to it, and
  /// the resolve span and finish when the context is batcher-owned. Null
  /// `tctx` with tracing enabled self-creates one, so direct batcher users
  /// get timelines without a ModelServer in front. `done` receives the
  /// outcome. Throws ServeError{Status::kClosed} after close().
  void submit(Tensor input, Clock::time_point hard_deadline,
              trace::TraceContextPtr tctx, Completion done);

  /// Future-returning wrappers over the callback path. The future carries
  /// the same typed result session.predict(x) yields.
  std::future<Prediction> submit(Tensor input);
  /// With a hard per-request deadline `timeout` from now: if it has
  /// expired by the time a worker dispatches the request, the future
  /// fails with ServeError{Status::kTimeout} instead of being served
  /// late. timeout <= 0 means already expired.
  std::future<Prediction> submit(Tensor input,
                                 std::chrono::microseconds timeout);
  /// Traced, with and without a hard deadline.
  std::future<Prediction> submit(Tensor input,
                                 std::chrono::microseconds timeout,
                                 trace::TraceContextPtr tctx);
  std::future<Prediction> submit(Tensor input, trace::TraceContextPtr tctx);

  /// Enqueues several requests at once (they may still be split across
  /// dispatched batches); one future per request, in order.
  std::vector<std::future<Prediction>> submit_many(std::vector<Tensor> inputs);

  /// Instrumentation/chaos seam: `hook(rows)` runs inside a worker thread
  /// immediately before each coalesced forward (and before each forward of
  /// the per-request retry path). An exception it throws is delivered
  /// exactly like a session exception — to the offending request after
  /// the per-request retry. The cluster chaos harness injects
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
    Completion done;
    /// Dispatch trigger: enqueue + coalescing floor, clamped to the hard
    /// deadline so expired requests surface (and fail) promptly.
    Clock::time_point deadline;
    Clock::time_point enqueue;
    /// Absolute per-request deadline (time_point::max() = none).
    Clock::time_point hard_deadline;
    /// Trace context (null when tracing is off or the request is untraced).
    trace::TraceContextPtr trace;
  };

  /// Future wrapper: a promise-resolving completion over submit().
  std::future<Prediction> submit_future(Tensor input,
                                        Clock::time_point hard_deadline,
                                        trace::TraceContextPtr tctx);

  void worker_loop();
  /// Pops the dispatch group (oldest request + same-per-row-shape
  /// followers, ≤ max_batch_). Caller holds mutex_.
  std::vector<Pending> take_batch();
  /// Removes every hard-expired request from the queue — any position,
  /// any shape — updating queued_rows_ and the queue-depth counter
  /// (BatcherCounters::on_expire): a request rejected on deadline leaves
  /// the queue accounting exactly like a dispatched one. Caller holds
  /// mutex_; the returned requests are failed by fail_expired() after
  /// unlocking.
  std::vector<Pending> sweep_expired(Clock::time_point now);
  /// Hands one request its outcome. A batcher-owned trace context then
  /// gets the resolve span (from `resolve_start`, unless it is the epoch)
  /// and is finished; other owners record their own resolve.
  static void complete(Pending& p, Prediction result,
                       std::exception_ptr error,
                       Clock::time_point resolve_start = {});
  /// Fails one request whose hard deadline passed with the typed timeout
  /// `what` and counts it (timeouts + completed). No locks held.
  void fail_expired(Pending& p, Clock::time_point now, const char* what);
  /// Runs one dispatched group and completes its requests. No locks held.
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
