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
//     otherwise. No thread is parked per request: submit() routes and
//     starts the first attempt on the caller's thread, and the replica's
//     batcher worker finishes it through a completion callback. Each
//     attempt carries an atomic claim that exactly one of "completed" (the
//     callback) and "abandoned at its deadline" (the timer thread) wins;
//     the winner resolves the promise or re-routes. A late result from an
//     abandoned attempt loses the claim and is dropped, so crashes,
//     stalls, retries and late results can never double-resolve or drop a
//     caller's future.
//
//   • Routing is load-aware power-of-two-choices: two candidates are
//     drawn from the routable pool (Healthy preferred; Degraded only
//     when no Healthy replica has capacity; Quarantined never) and the
//     one with the lower load() — attempts in flight on it — wins.
//     RoutingDecision exposes the choice for tests.
//
//   • Failed attempts retry with exponential backoff on a *re-routed*
//     replica, up to max_attempts within the request's deadline. One timer
//     thread, ordered by wake time, owns every per-attempt deadline and
//     every backoff-delayed retry; a batcher worker never sleeps or blocks
//     on the controller's behalf. The failure feedback drives the replica
//     health machine (replica.h), so a crashing replica quarantines itself
//     out of the pool after a few requests instead of eating every retry.
//     A CheckError (the request broke a session precondition — wrong
//     shape, wrong task kind) is the request's fault, not the replica's:
//     it reaches the caller's future unchanged, is not retried and leaves
//     replica health untouched.
//
//   • Admission control sheds load instead of collapsing: when every
//     routable replica is saturated (load ≥ max_inflight_per_replica,
//     by default 1024 split across the fleet),
//     submit() returns an already-failed future with
//     ServeError{kOverloaded} — the caller hears "back off" in
//     microseconds rather than a timeout later. If *no* replica is
//     routable (whole fleet quarantined) requests are still accepted: the
//     fleet may heal within their deadline; that is the
//     graceful-degradation path, not the overload path.
//
//   • A heartbeat thread probes Quarantined replicas with a canary input:
//     ClusterOptions::probe_input, else the last successfully served
//     input, else — before anything succeeded — the first input the
//     cluster accepted, so a fleet quarantined before its first success
//     still heals. probe_successes consecutive green probes return the
//     replica to Healthy; restart_after_probe_failures consecutive red
//     ones trigger a hot restart — kill the session, respawn it from the
//     artifact (auto_restart).
//
//   • Warm start: with probe_input set, every replica precompiles its
//     shape before it takes traffic — at construction and on restart — so
//     the first routed request never pays a trace + compile + verify.
//
// close() (and the destructor) drains: new submits are rejected, every
// accepted request resolves (retries still run), then the timer and
// heartbeat threads join and the replicas close. Every future ever
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
#include <exception>
#include <future>
#include <map>
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
  /// 0 (default): kFleetInflight split evenly across the replicas, so the
  /// fleet admits that many requests in flight whatever its size.
  int64_t max_inflight_per_replica = 0;
  /// The fleet-wide in-flight bound behind the default above: the bound
  /// of the controller queue that requests used to wait in before a
  /// dispatcher thread took them.
  static constexpr int64_t kFleetInflight = 1024;

  HealthPolicy health;
  int64_t heartbeat_interval_us = 2000;
  /// Probe budget; a probe slower than this counts as a failed probe.
  int64_t probe_timeout_us = 500'000;
  /// Canary input for quarantine probes; when set, every replica also
  /// precompiles its shape before it takes traffic (constructor and
  /// restart). Unset (empty tensor): the last input the cluster served
  /// successfully is the canary, or before any success the first input it
  /// accepted.
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
  /// (deploy::replicate), opens (and, with probe_input set, warms) each
  /// under its per-replica configuration, and starts the timer and
  /// heartbeat threads.
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
  /// appends dispatch/resolve spans (the winning replica's batcher adds
  /// its queue-wait/assembly/execute spans), and finishes cluster-owned
  /// contexts after the request's promise resolves. Null `tctx` with
  /// tracing enabled self-creates one, so direct cluster users get
  /// timelines without a ModelServer.
  std::future<Prediction> submit(Tensor input,
                                 std::chrono::microseconds timeout,
                                 trace::TraceContextPtr tctx);

  /// One load-aware power-of-two-choices routing verdict over the current
  /// fleet state. Public for tests; every attempt calls it.
  /// `exclude` drops one replica from the candidate pool — retries pass
  /// the replica that just failed them, so a re-route is a *different*
  /// replica whenever any other is routable (the excluded one is used
  /// again only as the pool of last resort).
  RoutingDecision route(int exclude = -1) const;

  /// Manual hot restart of replica i (kill → respawn from the artifact).
  void restart_replica(int i);

  /// Rejects new submits, waits until every accepted request resolved,
  /// joins the timer + heartbeat threads, closes the replicas. Idempotent;
  /// the destructor calls it.
  void close();
  bool closed() const;

  int replicas() const { return static_cast<int>(fleet_.size()); }
  Replica& replica(int i);
  /// Fleet snapshot, one NodeMetrics per replica.
  std::vector<NodeMetrics> metrics() const;
  const ClusterCounters& counters() const { return counters_; }
  const ClusterOptions& options() const { return options_; }
  /// Requests queued in the replicas' batchers (summed batcher depth).
  int64_t queue_depth() const;

 private:
  using Clock = std::chrono::steady_clock;
  /// One accepted request (defined in cluster.cpp).
  struct Call;
  using CallPtr = std::shared_ptr<Call>;
  /// Timer-thread work: the deadline of attempt `attempt`, or (kRetry) the
  /// backoff wake-up that starts the call's next attempt.
  struct TimerEntry {
    CallPtr call;
    int attempt;
  };
  using Timers = std::multimap<Clock::time_point, TimerEntry>;

  void heartbeat_loop();
  void timer_loop();
  /// The one attempt routine: deadline check, routing verdict, attempt
  /// budget, begin_attempt, dispatch span, deadline timer and
  /// Replica::submit with the completion callback. Never blocks on the
  /// result. Runs on the submitting thread (first attempt) or the timer
  /// thread (retries).
  void start_attempt(const CallPtr& call, RoutingDecision decision);
  /// The completion callback, on the replica's batcher worker.
  void on_attempt_done(const CallPtr& call, int attempt, int replica,
                       Prediction result, std::exception_ptr error);
  /// A claimed attempt failed (`timed_out`: abandoned at its deadline):
  /// replica health feedback, then retry or the final typed failure.
  void on_attempt_failed(const CallPtr& call, int replica, bool timed_out);
  /// Counts the attempt just ended. With attempts left, schedules the next
  /// one after its backoff and returns true; false when exhausted.
  bool retry(const CallPtr& call);
  /// Wins attempt `attempt` of `call` for the caller (exactly once).
  static bool claim(Call& call, int attempt);
  void arm(const CallPtr& call, Clock::time_point when, int attempt);
  void disarm(Call& call);
  /// Resolve the call's promise (counters first, trace finish after), then
  /// release it.
  void succeed(Call& call, Prediction prediction);
  void fail(Call& call, Status status, const std::string& what);
  void fail_with(Call& call, std::exception_ptr error, bool timed_out = false);
  /// One accepted request resolved; wakes close() once none is left.
  void release();
  /// Attempt deadline: the configured per-attempt budget, or an even
  /// split of the remaining deadline across the remaining attempts.
  Clock::time_point attempt_deadline_for(const Call& call,
                                         Clock::time_point now) const;
  void probe_quarantined();
  /// The probe canary, or an empty tensor when none is available yet.
  Tensor probe_input();

  const ClusterOptions options_;
  /// max_inflight_per_replica, with the 0 default resolved.
  const int64_t max_inflight_;
  const std::string artifact_path_;
  std::vector<std::unique_ptr<Replica>> fleet_;

  mutable std::mutex mutex_;  // closed_ + active_
  bool closed_ = false;
  int64_t active_ = 0;  // accepted requests not yet resolved
  std::condition_variable drained_cv_;
  /// Wakes the heartbeat at close() (waits on mutex_ too).
  std::condition_variable hb_cv_;
  std::thread heartbeat_;
  std::mutex join_mutex_;  // serializes concurrent close() calls

  std::mutex timer_mutex_;  // timers_, timer_wake_, timer_stop_, Call::timer
  std::condition_variable timer_cv_;
  Timers timers_;
  /// When the sleeping timer thread wakes by itself: arming an earlier
  /// entry notifies it, a later one does not.
  Clock::time_point timer_wake_ = Clock::time_point::max();
  bool timer_stop_ = false;
  std::thread timer_;

  /// Rotates the power-of-two candidate draw across route() calls.
  mutable std::atomic<uint64_t> route_counter_{0};

  std::mutex probe_mutex_;
  Tensor canary_;  // last good input, or the first accepted before that
  std::atomic<bool> have_canary_{false};

  ClusterCounters counters_;
};

}  // namespace ripple::serve
