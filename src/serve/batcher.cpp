#include "serve/batcher.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace ripple::serve {

namespace {

/// Requests coalesce only when every non-batch dimension agrees (the
/// predict_many contract). Degenerate inputs (undefined / rank 0) form
/// singleton groups so their failure stays theirs.
bool same_row_shape(const Tensor& a, const Tensor& b) {
  if (!a.defined() || !b.defined()) return false;
  if (a.rank() != b.rank() || a.rank() < 1) return false;
  for (int d = 1; d < a.rank(); ++d)
    if (a.dim(d) != b.dim(d)) return false;
  return true;
}

/// Rows a request contributes to a dispatched batch; degenerate inputs
/// (undefined / rank 0) count 1 so they still move through the queue.
int64_t rows_of(const Tensor& t) {
  return t.defined() && t.rank() >= 1 ? t.dim(0) : 1;
}

}  // namespace

AsyncBatcher::AsyncBatcher(const InferenceSession& session)
    : session_(session),
      max_batch_(session.options().batch_max_requests),
      max_rows_(std::max<int64_t>(0, session.options().batch_max_rows)),
      max_delay_(std::max<int64_t>(0, session.options().batch_max_delay_us)),
      worker_count_(static_cast<size_t>(
          std::max(1, session.options().batcher_threads))) {
  RIPPLE_CHECK(max_batch_ >= 1)
      << "AsyncBatcher needs batch_max_requests >= 1";
  workers_.reserve(worker_count_);
  for (size_t i = 0; i < worker_count_; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

AsyncBatcher::~AsyncBatcher() { close(); }

std::future<Prediction> AsyncBatcher::submit(Tensor input) {
  return submit_future(std::move(input), Clock::time_point::max(), nullptr);
}

std::future<Prediction> AsyncBatcher::submit(
    Tensor input, std::chrono::microseconds timeout) {
  return submit_future(std::move(input), Clock::now() + timeout, nullptr);
}

std::future<Prediction> AsyncBatcher::submit(Tensor input,
                                             std::chrono::microseconds timeout,
                                             trace::TraceContextPtr tctx) {
  return submit_future(std::move(input), Clock::now() + timeout,
                       std::move(tctx));
}

std::future<Prediction> AsyncBatcher::submit(Tensor input,
                                             trace::TraceContextPtr tctx) {
  return submit_future(std::move(input), Clock::time_point::max(),
                       std::move(tctx));
}

std::future<Prediction> AsyncBatcher::submit_future(
    Tensor input, Clock::time_point hard_deadline,
    trace::TraceContextPtr tctx) {
  auto promise = std::make_shared<std::promise<Prediction>>();
  std::future<Prediction> future = promise->get_future();
  submit(std::move(input), hard_deadline, std::move(tctx),
         [promise](Prediction result, std::exception_ptr error) {
           if (error) {
             promise->set_exception(std::move(error));
           } else {
             promise->set_value(std::move(result));
           }
         });
  return future;
}

void AsyncBatcher::submit(Tensor input, Clock::time_point hard_deadline,
                          trace::TraceContextPtr tctx, Completion done) {
  // Self-create a batcher-owned context for untraced requests so direct
  // batcher users get timelines too. With tracing off this is the one
  // branch the submit path pays.
  if (!tctx && trace::Tracer::instance().enabled()) {
    tctx = trace::Tracer::instance().begin_trace(
        "", trace::FinishLayer::kBatcher);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) {
      counters_.on_reject();
      throw ServeError(Status::kClosed, "AsyncBatcher::submit after close()");
    }
    const auto now = Clock::now();
    queued_rows_ += rows_of(input);
    // The dispatch trigger never waits past the hard deadline: an expired
    // request must surface as a prompt typed failure, not sit out the
    // coalescing floor first.
    queue_.push_back(Pending{std::move(input), std::move(done),
                             std::min(now + max_delay_, hard_deadline), now,
                             hard_deadline, std::move(tctx)});
    counters_.on_submit();
  }
  cv_.notify_one();
}

void AsyncBatcher::set_forward_hook(std::function<void(int64_t)> hook) {
  std::lock_guard<std::mutex> lock(hook_mutex_);
  forward_hook_ = std::move(hook);
}

std::vector<std::future<Prediction>> AsyncBatcher::submit_many(
    std::vector<Tensor> inputs) {
  std::vector<std::future<Prediction>> futures;
  futures.reserve(inputs.size());
  for (Tensor& x : inputs) futures.push_back(submit(std::move(x)));
  return futures;
}

void AsyncBatcher::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
  // Hold join_mutex_ across the join: a concurrent close() then blocks
  // here until the first closer finished draining, so *every* close()
  // returns only once the queue is empty and the workers have exited
  // (the destructor relies on this postcondition).
  std::lock_guard<std::mutex> lock(join_mutex_);
  std::vector<std::thread> workers;
  workers.swap(workers_);
  for (std::thread& w : workers) w.join();
}

bool AsyncBatcher::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

std::vector<AsyncBatcher::Pending> AsyncBatcher::take_batch() {
  std::vector<Pending> batch;
  int64_t batch_rows = rows_of(queue_.front().input);
  batch.push_back(std::move(queue_.front()));
  queue_.pop_front();
  // By value: push_back below reallocates `batch`, so a reference into it
  // would dangle (Tensor is a cheap shared handle).
  const Tensor ref = batch.front().input;
  for (auto it = queue_.begin();
       it != queue_.end() && static_cast<int64_t>(batch.size()) < max_batch_;) {
    const int64_t follower_rows = rows_of(it->input);
    // Rows-based sizing: don't let a follower push the batch past the
    // rows bound (the oldest request itself always dispatches, even when
    // oversized). Skipped followers stay queued, FIFO, for the next batch.
    if (max_rows_ > 0 && batch_rows + follower_rows > max_rows_) {
      ++it;
      continue;
    }
    if (same_row_shape(it->input, ref)) {
      batch_rows += follower_rows;
      batch.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  queued_rows_ -= batch_rows;
  counters_.on_dispatch(batch.size(), static_cast<size_t>(batch_rows));
  return batch;
}

std::vector<AsyncBatcher::Pending> AsyncBatcher::sweep_expired(
    Clock::time_point now) {
  std::vector<Pending> expired;
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->hard_deadline <= now) {
      queued_rows_ -= rows_of(it->input);
      expired.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  // The deadline-rejection path must decrement queue_depth just like
  // dispatch does — conservation law: submitted == completed and
  // queue_depth == 0 once drained, however each request left the queue.
  if (!expired.empty()) counters_.on_expire(expired.size());
  return expired;
}

void AsyncBatcher::complete(Pending& p, Prediction result,
                            std::exception_ptr error,
                            Clock::time_point resolve_start) {
  p.done(std::move(result), std::move(error));
  if (!p.trace || p.trace->finish_layer != trace::FinishLayer::kBatcher)
    return;
  trace::Tracer& tracer = trace::Tracer::instance();
  if (resolve_start != Clock::time_point{}) {
    tracer.record_span(p.trace, trace::Stage::kResolve, resolve_start,
                       Clock::now());
  }
  tracer.finish(p.trace);
}

void AsyncBatcher::fail_expired(Pending& p, Clock::time_point now,
                                const char* what) {
  // Counters first, completion last: a client that just observed the
  // outcome must find this request already accounted for.
  counters_.on_timeout();
  counters_.latency().record(
      std::chrono::duration_cast<std::chrono::microseconds>(now - p.enqueue)
          .count());
  counters_.on_complete(1);
  if (p.trace) {
    trace::Tracer::instance().record_span(p.trace, trace::Stage::kQueueWait,
                                          p.enqueue, now);
  }
  complete(p, {}, std::make_exception_ptr(ServeError(Status::kTimeout, what)));
}

void AsyncBatcher::run_batch(std::vector<Pending>& batch) {
  std::function<void(int64_t)> hook;
  {
    std::lock_guard<std::mutex> lock(hook_mutex_);
    hook = forward_hook_;
  }
  const auto record = [this](const Pending& p) {
    counters_.latency().record(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              p.enqueue)
            .count());
  };
  // Modeled hardware time per served request: TileCost conversions ×
  // ADC cycle × the request's rows. Read after the forward (the backend
  // is frozen by then, so the compiled set is complete); 0 for digital
  // backends keeps the histogram empty.
  const auto record_analog = [this](const Pending& p) {
    const double us_per_row = session_.modeled_analog_us_per_row();
    if (us_per_row > 0.0)
      counters_.analog_latency().record(static_cast<int64_t>(
          std::llround(us_per_row * static_cast<double>(rows_of(p.input)))));
  };

  // Deadline enforcement happens at dispatch: a request whose hard
  // deadline already passed gets the typed timeout now and never reaches
  // the session — late traffic must not burn a forward pass on answers
  // nobody is waiting for. Per request, counters land before the
  // completion runs, so metrics are consistent from the client's view.
  const auto dispatch_time = Clock::now();
  trace::Tracer& tracer = trace::Tracer::instance();
  std::vector<Pending> live;
  live.reserve(batch.size());
  for (Pending& p : batch) {
    if (p.hard_deadline <= dispatch_time) {
      fail_expired(p, dispatch_time,
                   "request deadline expired before dispatch");
    } else {
      live.push_back(std::move(p));
    }
  }
  if (live.empty()) return;

  std::vector<Tensor> inputs;
  inputs.reserve(live.size());
  int64_t live_rows = 0;
  bool traced = false;
  for (const Pending& p : live) {
    inputs.push_back(p.input);
    live_rows += rows_of(p.input);
    traced = traced || p.trace != nullptr;
  }
  std::vector<Prediction> results;
  Clock::time_point forward_start;
  try {
    if (hook) hook(live_rows);
    forward_start = Clock::now();
    trace::TraceData* lead = nullptr;
    if (traced) {
      // The coalesced forward is one shared piece of work — queue-wait
      // and assembly spans land per request, and the first traced member
      // owns the batch's session-level execute sub-spans.
      for (const Pending& p : live) {
        if (!p.trace) continue;
        if (lead == nullptr) lead = p.trace.get();
        tracer.record_span(p.trace, trace::Stage::kQueueWait, p.enqueue,
                           dispatch_time);
        tracer.record_span(p.trace, trace::Stage::kBatchAssembly,
                           dispatch_time, forward_start);
      }
    }
    trace::ActiveRequestScope scope(lead);
    results = session_.predict_many(inputs);
  } catch (...) {
    // The coalesced forward failed; retry request-by-request so the
    // exception lands only in the offending request and the rest of the
    // batch still completes. The hook runs per retried forward too — an
    // injected crash fails every request it serves.
    for (Pending& p : live) {
      Prediction result;
      Clock::time_point retry_start, retry_end;
      std::exception_ptr error;
      try {
        if (hook) hook(rows_of(p.input));
        retry_start = Clock::now();
        trace::ActiveRequestScope scope(p.trace.get());
        result = session_.predict(p.input);
        retry_end = Clock::now();
      } catch (...) {
        error = std::current_exception();
      }
      record(p);
      counters_.on_complete(1);
      if (error) {
        complete(p, {}, std::move(error));
        continue;
      }
      record_analog(p);
      observe_uncertainty(counters_.uncertainty(), result);
      if (p.trace) {
        tracer.record_span(p.trace, trace::Stage::kExecute, retry_start,
                           retry_end, 1);
      }
      complete(p, std::move(result), nullptr, retry_end);
    }
    return;
  }
  const auto exec_end = Clock::now();
  for (size_t i = 0; i < live.size(); ++i) {
    record(live[i]);
    record_analog(live[i]);
    observe_uncertainty(counters_.uncertainty(), results[i]);
    counters_.on_complete(1);
    if (live[i].trace) {
      tracer.record_span(live[i].trace, trace::Stage::kExecute, forward_start,
                         exec_end, static_cast<uint32_t>(live.size()));
    }
    complete(live[i], std::move(results[i]), nullptr, exec_end);
  }
}

void AsyncBatcher::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
    if (closed_ && queue_.empty()) return;
    // Coalescing floor (batch_max_delay_us > 0 only): hold the batch open
    // until max_batch requests (or, with rows-based sizing, batch_max_rows
    // rows) are queued or the earliest dispatch trigger passes. At the
    // default floor of 0 every trigger is the enqueue time, so an idle
    // worker dispatches what is queued at once. Closing skips straight to
    // dispatch (drain semantics). The queue can change under us (another
    // worker dispatched), so every wakeup re-reads it.
    while (!closed_ && !queue_.empty() &&
           static_cast<int64_t>(queue_.size()) < max_batch_ &&
           (max_rows_ == 0 || queued_rows_ < max_rows_)) {
      // The whole queue is scanned for the earliest dispatch trigger:
      // per-request hard deadlines break the front-is-earliest invariant —
      // a later arrival may carry a shorter deadline than the front.
      Clock::time_point trigger = queue_.front().deadline;
      for (const Pending& p : queue_) trigger = std::min(trigger, p.deadline);
      if (trigger <= Clock::now() ||
          cv_.wait_until(lock, trigger) == std::cv_status::timeout)
        break;
    }
    if (queue_.empty()) continue;
    // Expired requests are rejected from wherever they sit in the queue —
    // including behind a shape they never could have coalesced with —
    // before batch assembly, so a deadline rejection is prompt and the
    // queue-depth gauge drops on this path exactly as it does on dispatch.
    std::vector<Pending> expired = sweep_expired(Clock::now());
    std::vector<Pending> batch;
    if (!queue_.empty()) batch = take_batch();
    lock.unlock();
    for (Pending& p : expired)
      fail_expired(p, Clock::now(), "request deadline expired in queue");
    if (!batch.empty()) run_batch(batch);
    lock.lock();
  }
}

}  // namespace ripple::serve
