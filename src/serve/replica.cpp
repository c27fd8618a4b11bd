#include "serve/replica.h"

#include <algorithm>
#include <utility>

#include "tensor/check.h"

namespace ripple::serve {

namespace {

/// EWMA smoothing factor of the per-replica latency estimate.
constexpr double kLatencyAlpha = 0.2;

}  // namespace

const char* health_state_name(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kQuarantined:
      return "quarantined";
  }
  return "?";
}

Replica::Replica(int id, std::unique_ptr<InferenceSession> session,
                 std::string artifact_path, deploy::DeployOptions options,
                 HealthPolicy policy)
    : id_(id),
      artifact_path_(std::move(artifact_path)),
      options_(std::move(options)),
      policy_(policy) {
  RIPPLE_CHECK(session != nullptr) << "Replica: null session";
  session_ = std::move(session);
  batcher_ = std::make_unique<AsyncBatcher>(*session_);
}

Replica::~Replica() { close(); }

std::future<Prediction> Replica::submit(Tensor input,
                                        std::chrono::microseconds timeout) {
  return submit(std::move(input), timeout, nullptr);
}

std::future<Prediction> Replica::submit(Tensor input,
                                        std::chrono::microseconds timeout,
                                        trace::TraceContextPtr tctx) {
  std::shared_lock lock(session_mutex_);
  if (!batcher_) {
    throw ServeError(Status::kClosed, "Replica::submit after close()");
  }
  return batcher_->submit(std::move(input), timeout, std::move(tctx));
}

void Replica::set_forward_hook(std::function<void(int64_t)> hook) {
  // Lock order everywhere: session_mutex_ before hook_mutex_ (restart()
  // reinstalls the hook while holding session_mutex_ exclusively).
  std::shared_lock lock(session_mutex_);
  std::lock_guard hook_lock(hook_mutex_);
  hook_ = std::move(hook);
  if (batcher_) batcher_->set_forward_hook(hook_);
}

int64_t Replica::load() const {
  int64_t depth = 0;
  {
    std::shared_lock lock(session_mutex_);
    if (batcher_) depth = batcher_->counters().queue_depth();
  }
  return inflight_.load(std::memory_order_relaxed) + depth;
}

HealthState Replica::state() const {
  std::lock_guard lock(state_mutex_);
  return state_;
}

NodeMetrics Replica::metrics() const {
  NodeMetrics m;
  m.id = id_;
  m.inflight = inflight_.load(std::memory_order_relaxed);
  m.succeeded = succeeded_.load(std::memory_order_relaxed);
  m.failures = failures_.load(std::memory_order_relaxed);
  m.timeouts = timeouts_.load(std::memory_order_relaxed);
  m.restarts = restarts_.load(std::memory_order_relaxed);
  {
    std::shared_lock lock(session_mutex_);
    if (batcher_) {
      m.queue_depth = batcher_->counters().queue_depth();
      const LatencyHistogram& h = batcher_->counters().latency();
      m.p50_latency_us = h.p50();
      m.p95_latency_us = h.p95();
      m.p99_latency_us = h.p99();
      const LatencyHistogram& a = batcher_->counters().analog_latency();
      m.analog_p50_us = a.p50();
      m.analog_p95_us = a.p95();
      m.analog_p99_us = a.p99();
      const UncertaintyMonitor::Snapshot u =
          batcher_->counters().uncertainty().snapshot();
      m.uncertainty_count = u.count;
      m.entropy_fast = u.entropy_fast;
      m.entropy_baseline = u.entropy_baseline;
      m.variance_fast = u.variance_fast;
      m.variance_baseline = u.variance_baseline;
      m.uncertainty_drift = u.drift;
    }
  }
  {
    std::lock_guard lock(state_mutex_);
    m.state = state_;
    m.ewma_latency_us = ewma_latency_us_;
    m.consecutive_failures = consecutive_failures_;
  }
  return m;
}

uint64_t Replica::restarts() const {
  return restarts_.load(std::memory_order_relaxed);
}

int Replica::consecutive_probe_failures() const {
  std::lock_guard lock(state_mutex_);
  return probe_failures_;
}

void Replica::begin_attempt() {
  inflight_.fetch_add(1, std::memory_order_relaxed);
}

void Replica::end_attempt() {
  inflight_.fetch_sub(1, std::memory_order_relaxed);
}

void Replica::on_success(double latency_us) {
  succeeded_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(state_mutex_);
  consecutive_failures_ = 0;
  ewma_latency_us_ = ewma_latency_us_ <= 0.0
                         ? latency_us
                         : (1.0 - kLatencyAlpha) * ewma_latency_us_ +
                               kLatencyAlpha * latency_us;
  if (state_ == HealthState::kDegraded) state_ = HealthState::kHealthy;
}

void Replica::on_failure(bool timed_out) {
  (timed_out ? timeouts_ : failures_).fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(state_mutex_);
  ++consecutive_failures_;
  if (consecutive_failures_ >= policy_.quarantine_after) {
    state_ = HealthState::kQuarantined;
  } else if (consecutive_failures_ >= policy_.degraded_after &&
             state_ == HealthState::kHealthy) {
    state_ = HealthState::kDegraded;
  }
}

void Replica::on_probe_success() {
  std::lock_guard lock(state_mutex_);
  probe_failures_ = 0;
  if (state_ != HealthState::kQuarantined) return;
  if (++probe_successes_ >= policy_.probe_successes) {
    state_ = HealthState::kHealthy;
    consecutive_failures_ = 0;
    probe_successes_ = 0;
  }
}

void Replica::on_probe_failure() {
  std::lock_guard lock(state_mutex_);
  probe_successes_ = 0;
  ++probe_failures_;
}

void Replica::restart() {
  std::unique_lock lock(session_mutex_);
  if (batcher_) batcher_->close();  // drain: pre-restart futures resolve
  batcher_.reset();
  session_.reset();
  session_ = InferenceSession::open(artifact_path_, options_);
  batcher_ = std::make_unique<AsyncBatcher>(*session_);
  {
    std::lock_guard hook_lock(hook_mutex_);
    if (hook_) batcher_->set_forward_hook(hook_);
  }
  restarts_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard state_lock(state_mutex_);
  consecutive_failures_ = 0;
  probe_successes_ = 0;
  probe_failures_ = 0;
  if (state_ == HealthState::kDegraded) state_ = HealthState::kHealthy;
}

void Replica::close() {
  std::unique_lock lock(session_mutex_);
  if (batcher_) batcher_->close();
  batcher_.reset();
}

const InferenceSession& Replica::session() const {
  std::shared_lock lock(session_mutex_);
  RIPPLE_CHECK(session_ != nullptr) << "Replica::session after close()";
  return *session_;
}

}  // namespace ripple::serve
