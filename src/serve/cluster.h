// serve::ClusterController — self-healing replica fleet behind one
// submit() front door.
//
// A single InferenceSession + AsyncBatcher is a single point of failure:
// one wedged forward (an analog tile gone bad, a stalled backend) takes
// the whole serving path with it. The controller runs N Replicas — each a
// session opened from the *same* .rpla artifact under its own seed/fault
// configuration, plus its own batcher — and turns their independent
// failure domains into fleet-level robustness:
//
//   • submit(x[, timeout]) → std::future<Prediction>, resolved **exactly
//     once** no matter what the fleet does underneath: with a result on
//     success, with ServeError{kTimeout | kReplicaDown | kOverloaded}
//     otherwise. Each accepted request is owned end-to-end by one
//     dispatcher thread — the only writer of its promise — so crashes,
//     stalls, retries and late results can never double-resolve or drop
//     a caller's future (late results from an abandoned attempt are
//     simply discarded with the attempt's future).
//
//   • Routing is load-aware power-of-two-choices: two candidates are
//     drawn from the routable pool (Healthy preferred; Degraded only
//     when no Healthy replica has capacity; Quarantined never) and the
//     one with the lower load() — in-flight attempts + batcher queue
//     depth — wins. RoutingDecision exposes the choice for tests.
//
//   • Failed attempts retry with exponential backoff on a *re-routed*
//     replica, up to max_attempts within the request's deadline. The
//     failure feedback drives the replica health machine (replica.h), so
//     a crashing replica quarantines itself out of the pool after a few
//     requests instead of eating every retry. A CheckError (the request
//     broke a session precondition — wrong shape, wrong task kind) is the
//     request's fault, not the replica's: it reaches the caller's future
//     unchanged, is not retried and leaves replica health untouched.
//
//   • Admission control sheds load instead of collapsing: when the
//     controller queue is full, or every routable replica is saturated
//     (load ≥ max_inflight_per_replica), submit() returns an
//     already-failed future with ServeError{kOverloaded} — the caller
//     hears "back off" in microseconds rather than a timeout later. If
//     *no* replica is routable (whole fleet quarantined) requests are
//     still accepted: the fleet may heal within their deadline; that is
//     the graceful-degradation path, not the overload path.
//
//   • A heartbeat thread snapshots NodeMetrics and probes Quarantined
//     replicas with a canary input (ClusterOptions::probe_input, or the
//     last successfully served input). probe_successes consecutive green
//     probes return the replica to Healthy; restart_after_probe_failures
//     consecutive red ones trigger a hot restart — kill the session,
//     respawn it from the artifact (auto_restart).
//
// close() (and the destructor) drains: queued requests are still served,
// then dispatchers join, then the replicas close. Every future ever
// returned by submit() is resolved — requests are never silently dropped.
//
// Verified by tests/cluster_test.cpp: a chaos harness injects crashes,
// stalls and latency ramps through the replicas' forward hooks and
// asserts the exactly-once contract and fleet re-convergence under TSAN.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "deploy/deploy.h"
#include "serve/replica.h"
#include "serve/trace.h"

namespace ripple::serve {

struct ClusterOptions {
  /// Fleet size (≥ 1).
  int replicas = 2;
  /// How each replica opens the artifact (backend, session overrides,
  /// crossbar fault knobs). Replica i serves under session seed base+i and
  /// crossbar seed base+i — the fleet is a Monte-Carlo ensemble of
  /// differently-faulted chip instances, matching the paper's
  /// chip-to-chip variation model.
  deploy::DeployOptions deploy;

  /// Dispatcher threads; each owns one accepted request end-to-end, so
  /// dispatch_threads × dispatch_chunk bounds cluster-level concurrency
  /// (queued requests wait for a free dispatcher).
  int dispatch_threads = 4;
  /// Tasks a dispatcher pops per wakeup. The chunk's first attempts are
  /// all started (routed and submitted) before any result is awaited, so
  /// chunk members coalesce into the same replica batches and the
  /// dispatcher pays one queue wakeup (and usually one future wait) per
  /// chunk instead of per request. 1 = one task per wakeup. Retries
  /// happen one task at a time during the collect pass.
  int dispatch_chunk = 8;

  /// Per-request deadline when submit() is called without one (0 = none).
  int64_t default_timeout_us = 2'000'000;
  /// Per-attempt budget before the attempt is abandoned and re-routed
  /// (stall detection). 0 = split the remaining deadline evenly across the
  /// remaining attempts.
  int64_t attempt_timeout_us = 0;
  /// Attempts per request (first try + retries), each on a fresh route.
  int max_attempts = 3;
  /// Exponential backoff between attempts: first wait, doubling, capped.
  int64_t retry_backoff_us = 200;
  int64_t max_backoff_us = 20'000;

  /// Admission control: a routable replica with load() at this bound is
  /// saturated; all routable replicas saturated ⇒ shed (kOverloaded).
  int64_t max_inflight_per_replica = 64;
  /// Controller queue bound (accepted, waiting for a dispatcher).
  int64_t queue_limit = 1024;

  HealthPolicy health;
  int64_t heartbeat_interval_us = 2000;
  /// Probe budget; a probe slower than this counts as a failed probe.
  int64_t probe_timeout_us = 500'000;
  /// Canary input for quarantine probes. Unset (empty tensor): the last
  /// input the cluster served successfully is reused.
  Tensor probe_input;
  /// Hot-restart a quarantined replica after this many consecutive failed
  /// probes (auto_restart). The respawned replica still re-earns Healthy
  /// through probes.
  bool auto_restart = true;
  int restart_after_probe_failures = 2;
};

/// One routing verdict. replica == -1 ⇒ nothing routable right now;
/// `verdict` then says why: kOverloaded (routable replicas exist but all
/// are saturated) or kReplicaDown (every replica quarantined).
struct RoutingDecision {
  int replica = -1;
  int runner_up = -1;  // the losing power-of-two candidate (-1 if none)
  Status verdict = Status::kOk;
};

/// Fleet-level counters (relaxed atomics, readable from any thread).
/// Conservation law the chaos tests assert: submitted() ==
/// succeeded() + failed() + timeouts() + shed() once the cluster is
/// closed — every request resolves, exactly once.
class ClusterCounters {
 public:
  void on_submit() { submitted_.fetch_add(1, relaxed); }
  void on_shed() { shed_.fetch_add(1, relaxed); }
  void on_success() { succeeded_.fetch_add(1, relaxed); }
  void on_failure() { failed_.fetch_add(1, relaxed); }
  void on_timeout() { timeouts_.fetch_add(1, relaxed); }
  void on_retry() { retries_.fetch_add(1, relaxed); }
  void on_probe() { probes_.fetch_add(1, relaxed); }
  void on_probe_failure() { probe_failures_.fetch_add(1, relaxed); }
  void on_restart() { restarts_.fetch_add(1, relaxed); }

  uint64_t submitted() const { return submitted_.load(relaxed); }
  /// Rejected at admission with kOverloaded (their futures still resolve).
  uint64_t shed() const { return shed_.load(relaxed); }
  uint64_t succeeded() const { return succeeded_.load(relaxed); }
  /// Resolved with kReplicaDown / kOverloaded (attempts exhausted), or
  /// with the request's own CheckError (bad input, never retried).
  uint64_t failed() const { return failed_.load(relaxed); }
  /// Resolved with kTimeout (deadline expired or attempts timed out).
  uint64_t timeouts() const { return timeouts_.load(relaxed); }
  /// Re-routed attempts beyond each request's first.
  uint64_t retries() const { return retries_.load(relaxed); }
  uint64_t probes() const { return probes_.load(relaxed); }
  uint64_t probe_failures() const { return probe_failures_.load(relaxed); }
  /// Hot restarts triggered by the heartbeat (manual ones excluded).
  uint64_t restarts() const { return restarts_.load(relaxed); }

  /// End-to-end submit-to-resolution latency of every accepted request
  /// (successes and typed failures alike; shed requests excluded).
  const LatencyHistogram& latency() const { return latency_; }
  LatencyHistogram& latency() { return latency_; }

 private:
  static constexpr std::memory_order relaxed = std::memory_order_relaxed;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> succeeded_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> timeouts_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> probes_{0};
  std::atomic<uint64_t> probe_failures_{0};
  std::atomic<uint64_t> restarts_{0};
  LatencyHistogram latency_;
};

class ClusterController {
 public:
  /// Loads the artifact once, replicates it per replica
  /// (deploy::replicate), opens each under its per-replica configuration,
  /// and starts the dispatcher pool + heartbeat.
  ClusterController(const std::string& artifact_path, ClusterOptions options);
  ~ClusterController();
  ClusterController(const ClusterController&) = delete;
  ClusterController& operator=(const ClusterController&) = delete;

  /// Submits one request under options().default_timeout_us. The returned
  /// future resolves exactly once — see the header comment for the typed
  /// failure contract. Throws ServeError{kClosed} after close().
  std::future<Prediction> submit(Tensor input);
  /// Same, with an explicit overall deadline (timeout <= 0: no deadline).
  std::future<Prediction> submit(Tensor input,
                                 std::chrono::microseconds timeout);

  /// Same, carrying an upstream trace context (serve/trace.h): the cluster
  /// appends queue-wait/dispatch/resolve spans (the winning replica's
  /// batcher adds its own), and finishes cluster-owned contexts after the
  /// task promise resolves. Null `tctx` with tracing enabled self-creates
  /// one, so direct cluster users get timelines without a ModelServer.
  std::future<Prediction> submit(Tensor input,
                                 std::chrono::microseconds timeout,
                                 trace::TraceContextPtr tctx);

  /// One load-aware power-of-two-choices routing verdict over the current
  /// fleet state. Public for tests; dispatchers call it per attempt.
  /// `exclude` drops one replica from the candidate pool — retries pass
  /// the replica that just failed them, so a re-route is a *different*
  /// replica whenever any other is routable (the excluded one is used
  /// again only as the pool of last resort).
  RoutingDecision route(int exclude = -1) const;

  /// Manual hot restart of replica i (kill → respawn from the artifact).
  void restart_replica(int i);

  /// Drains queued requests, joins dispatchers + heartbeat, closes the
  /// replicas. Idempotent; the destructor calls it.
  void close();
  bool closed() const;

  int replicas() const { return static_cast<int>(fleet_.size()); }
  Replica& replica(int i);
  /// Fleet snapshot, one NodeMetrics per replica.
  std::vector<NodeMetrics> metrics() const;
  const ClusterCounters& counters() const { return counters_; }
  const ClusterOptions& options() const { return options_; }
  /// Requests accepted but not yet picked up by a dispatcher.
  int64_t queue_depth() const;

 private:
  struct Task {
    Tensor input;
    std::promise<Prediction> promise;
    std::chrono::steady_clock::time_point enqueue;
    /// Absolute deadline (time_point::max() = none).
    std::chrono::steady_clock::time_point deadline;
    /// Trace context (null when tracing is off or the request is untraced).
    trace::TraceContextPtr trace;
  };

  /// One started attempt: routed and submitted, not yet awaited.
  struct Attempt {
    std::future<Prediction> outcome;
    RoutingDecision decision;  // decision.replica == -1 ⇒ nothing routable
    bool dispatched = false;
    bool expired = false;  // the request's deadline had passed at start
    std::chrono::steady_clock::time_point start;
    std::chrono::steady_clock::time_point deadline;  // attempt deadline
  };

  void dispatcher_loop();
  void heartbeat_loop();
  /// The one attempt-submission routine: deadline check, route (avoiding
  /// `exclude`), attempt budget, begin_attempt, Replica::submit and the
  /// dispatch span. Never blocks on the result.
  void start_attempt(Task& task, int attempt, int exclude, Attempt& a);
  /// The retry/backoff state machine for one accepted request, starting
  /// from its already-started first attempt `a`. Resolves task.promise
  /// exactly once.
  void serve_task(Task& task, Attempt& a);
  /// Attempt deadline: the configured per-attempt budget, or an even
  /// split of the remaining deadline across the remaining attempts.
  std::chrono::steady_clock::time_point attempt_deadline_for(
      const Task& task, std::chrono::steady_clock::time_point now,
      int attempt) const;
  void probe_quarantined();
  /// A probe input, or an empty tensor when none is available yet.
  Tensor probe_input();

  const ClusterOptions options_;
  const std::string artifact_path_;
  std::vector<std::unique_ptr<Replica>> fleet_;

  mutable std::mutex mutex_;  // queue_ + closed_
  std::condition_variable cv_;
  std::deque<Task> queue_;
  bool closed_ = false;

  std::vector<std::thread> dispatchers_;
  std::thread heartbeat_;
  /// Separate from cv_ so per-submit notifications don't wake the
  /// heartbeat into premature probe rounds (waits on mutex_ too).
  std::condition_variable hb_cv_;
  std::mutex join_mutex_;  // serializes concurrent close() calls

  /// Rotates the power-of-two candidate draw across route() calls.
  mutable std::atomic<uint64_t> route_counter_{0};

  std::mutex probe_mutex_;
  Tensor last_good_input_;  // falls back as the probe canary
  bool have_last_good_ = false;

  ClusterCounters counters_;
};

}  // namespace ripple::serve
