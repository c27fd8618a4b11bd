// serve::Replica — one worker of the self-healing replica fleet.
//
// A Replica owns one InferenceSession (opened from the shared deployment
// artifact under its *own* seed/fault configuration — each replica is a
// differently-faulted chip instance, which is exactly what the paper's
// Monte-Carlo chip-evaluation loop wants spread across a fleet) plus the
// AsyncBatcher that coalesces the traffic routed to it. On top of serving,
// it carries the observable state the ClusterController's routing and
// self-healing read:
//
//   • load — controller attempts routed here and not yet completed by the
//     batcher (queued or executing), the signal power-of-two-choices
//     routing and admission control compare;
//   • latency — per-replica EWMA and the batcher's log2 histogram
//     (p50/p95/p99 via serve/metrics.h);
//   • health — Healthy → Degraded → Quarantined, driven by runs of
//     consecutive failed attempts (HealthPolicy thresholds). Degraded
//     replicas still serve (deprioritized: routed only when no healthy
//     replica has capacity) and one success restores them; Quarantined
//     replicas receive no traffic and recover only through controller
//     probes — or through restart().
//
// restart() is the kill-and-respawn path: a fresh session is opened from
// the artifact under the same per-replica configuration (and warmed on the
// replica's warm shape, when it has one), swapped in, and only then is the
// old batcher drained and the old session destroyed. Requests accepted
// before the restart still complete (drain semantics); the installed
// forward hook is re-installed on the new batcher so chaos harnesses keep
// their grip on a respawned replica.
//
// Thread safety: submit()/metrics()/the on_* feedback hooks may be called
// from any thread; restart() and close() exclude submits only for the
// pointer swap, never for a session open or a drain.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "deploy/deploy.h"
#include "serve/batcher.h"
#include "serve/metrics.h"
#include "serve/session.h"
#include "serve/status.h"

namespace ripple::serve {

enum class HealthState { kHealthy, kDegraded, kQuarantined };

const char* health_state_name(HealthState state);

/// Health transition thresholds, all in *consecutive* events — runs are
/// deterministic to test against and react faster than windowed rates at
/// serving volumes where a rate estimate would still be warming up.
struct HealthPolicy {
  /// Consecutive failed attempts before a Healthy replica turns Degraded.
  int degraded_after = 1;
  /// Consecutive failed attempts before the replica is Quarantined.
  int quarantine_after = 3;
  /// Consecutive successful probes a Quarantined replica needs to return
  /// to Healthy.
  int probe_successes = 2;
};

/// Snapshot of one replica — what heartbeats publish and RoutingDecisions
/// are made from.
struct NodeMetrics {
  int id = 0;
  HealthState state = HealthState::kHealthy;
  int64_t inflight = 0;     // controller attempts routed, not completed
  int64_t queue_depth = 0;  // batcher queue behind them
  double ewma_latency_us = 0.0;
  double p50_latency_us = 0.0;
  double p95_latency_us = 0.0;
  double p99_latency_us = 0.0;
  /// TileCost-modeled ADC/conversion time percentiles of served requests
  /// (BatcherCounters::analog_latency) — 0 on digital backends. What the
  /// analog chip would have spent, beside what the simulation did spend.
  double analog_p50_us = 0.0;
  double analog_p95_us = 0.0;
  double analog_p99_us = 0.0;
  uint64_t succeeded = 0;  // attempts resolved with a result
  uint64_t failures = 0;   // attempts resolved with an exception
  uint64_t timeouts = 0;   // attempts abandoned at their deadline
  int consecutive_failures = 0;
  uint64_t restarts = 0;
  /// Streaming predictive-uncertainty EWMAs of this replica's served
  /// requests (UncertaintyMonitor): the paper's fault signal per chip
  /// instance. A drifting replica moves uncertainty_drift away from 0
  /// while its healthy peers stay flat — visible from one scrape.
  uint64_t uncertainty_count = 0;
  double entropy_fast = 0.0;
  double entropy_baseline = 0.0;
  double variance_fast = 0.0;
  double variance_baseline = 0.0;
  double uncertainty_drift = 0.0;
};

class Replica {
 public:
  /// Takes ownership of an open session; `artifact_path` + `options` are
  /// kept for restart() to respawn an identically-configured session. A
  /// non-empty `warm_shape` is precompiled (InferenceSession::precompile)
  /// before this replica, or any respawn of it, takes traffic.
  Replica(int id, std::unique_ptr<InferenceSession> session,
          std::string artifact_path, deploy::DeployOptions options,
          HealthPolicy policy, Shape warm_shape = {});
  ~Replica();
  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  int id() const { return id_; }

  /// Routes one request into this replica's batcher under the absolute
  /// hard deadline `deadline`, forwarding an upstream trace context
  /// (cluster-owned contexts pick up the batcher's queue-wait/execute
  /// spans without the batcher finishing them). `done` runs on the
  /// batcher's worker (AsyncBatcher::Completion). Throws
  /// ServeError{kClosed} after close().
  void submit(Tensor input, std::chrono::steady_clock::time_point deadline,
              trace::TraceContextPtr tctx, AsyncBatcher::Completion done);
  /// Future-returning form under a hard deadline `timeout` from now
  /// (probes, tests).
  std::future<Prediction> submit(Tensor input,
                                 std::chrono::microseconds timeout);

  /// Worker-side chaos/instrumentation seam, forwarded to the batcher and
  /// re-installed across restart() (AsyncBatcher::set_forward_hook).
  void set_forward_hook(std::function<void(int64_t rows)> hook);

  /// Routing load signal: controller attempts in flight here.
  int64_t load() const;
  /// Saturation check against the controller's per-replica bound.
  bool saturated(int64_t max_inflight) const {
    return load() >= max_inflight;
  }

  HealthState state() const;
  NodeMetrics metrics() const;
  uint64_t restarts() const;
  /// Consecutive failed probes since the last success — the controller's
  /// auto-restart trigger.
  int consecutive_probe_failures() const;

  // ---- controller feedback --------------------------------------------------
  /// Brackets one routed attempt, from before its submit until the
  /// batcher completes it — also when the controller abandoned it at its
  /// deadline, since the replica still holds the work (inflight
  /// accounting).
  void begin_attempt();
  void end_attempt();
  /// Attempt resolved with a result: clears the failure run, feeds the
  /// latency EWMA, and lifts a Degraded replica back to Healthy.
  void on_success(double latency_us);
  /// Attempt failed (`timed_out` = abandoned at its deadline rather than
  /// resolved with an exception): extends the failure run and drives the
  /// Healthy → Degraded → Quarantined transitions.
  void on_failure(bool timed_out);
  void on_probe_success();
  void on_probe_failure();

  /// Kill → respawn: opens (and warms) a fresh session from the artifact
  /// under the same options, swaps it in, then drains the old batcher and
  /// destroys the old session. A Quarantined replica stays quarantined
  /// (recovery is the probes' verdict, not the restart's); otherwise the
  /// replica comes back Healthy.
  void restart();

  /// Drains and joins the batcher; submits afterwards are rejected.
  void close();

  /// The live session (oracle comparisons in tests). Do not cache across
  /// restart().
  const InferenceSession& session() const;

 private:
  const int id_;
  const std::string artifact_path_;
  const deploy::DeployOptions options_;
  const HealthPolicy policy_;
  const Shape warm_shape_;

  /// restart()/close() exclude submits/metrics while they swap the
  /// session + batcher pointers.
  mutable std::shared_mutex session_mutex_;
  std::unique_ptr<InferenceSession> session_;
  std::unique_ptr<AsyncBatcher> batcher_;

  mutable std::mutex state_mutex_;  // health state + EWMA + runs
  HealthState state_ = HealthState::kHealthy;
  int consecutive_failures_ = 0;
  int probe_successes_ = 0;
  int probe_failures_ = 0;
  double ewma_latency_us_ = 0.0;

  std::atomic<int64_t> inflight_{0};
  std::atomic<uint64_t> succeeded_{0};
  std::atomic<uint64_t> failures_{0};
  std::atomic<uint64_t> timeouts_{0};
  std::atomic<uint64_t> restarts_{0};

  std::mutex hook_mutex_;
  std::function<void(int64_t)> hook_;
};

}  // namespace ripple::serve
