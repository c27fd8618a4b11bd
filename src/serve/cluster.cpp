#include "serve/cluster.h"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "tensor/check.h"

namespace ripple::serve {

namespace {

using Clock = std::chrono::steady_clock;
constexpr Clock::time_point kNoDeadline = Clock::time_point::max();
/// Call::open when no attempt can be claimed.
constexpr int kClaimed = -1;
/// TimerEntry::attempt of a backoff wake-up.
constexpr int kRetry = -1;
/// Longest the timer thread sleeps with nothing armed. Arming an entry
/// due before the sleeper's own wake-up notifies it; entries due later
/// (attempt deadlines are usually hundreds of ms out) do not, so an idle
/// fleet's timer thread costs a wake-up per tick, not one per request.
constexpr auto kTimerIdleTick = std::chrono::milliseconds(50);

int64_t us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::microseconds>(to - from)
      .count();
}

bool is_check_error(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const CheckError&) {
    return true;
  } catch (...) {
    return false;
  }
}

}  // namespace

struct ClusterController::Call {
  Tensor input;
  std::promise<Prediction> promise;
  Clock::time_point enqueue;
  Clock::time_point deadline;  // kNoDeadline = none
  trace::TraceContextPtr trace;

  // Attempt state, touched only by the call's current owner: the thread
  // that starts an attempt, then whichever path claims it (or the timer
  // thread, for a scheduled retry).
  int attempt = 0;  // index of the attempt in flight, or the next one
  int replica = -1;  // where the attempt in flight was routed
  int last_failed = -1;  // retries route around it
  int64_t backoff_us = 0;
  Clock::time_point attempt_start;

  /// The attempt index a completion or its deadline timer may still claim;
  /// kClaimed once one of them has.
  std::atomic<int> open{kClaimed};
  /// This call's armed timer entry (guarded by timer_mutex_).
  Timers::iterator timer;
  bool timer_armed = false;
};

ClusterController::ClusterController(const std::string& artifact_path,
                                     ClusterOptions options)
    : options_(std::move(options)),
      max_inflight_(options_.max_inflight_per_replica > 0
                        ? options_.max_inflight_per_replica
                        : (ClusterOptions::kFleetInflight +
                           std::max(options_.replicas, 1) - 1) /
                              std::max(options_.replicas, 1)),
      artifact_path_(artifact_path) {
  RIPPLE_CHECK(options_.replicas >= 1) << "ClusterController: replicas >= 1";
  RIPPLE_CHECK(options_.max_attempts >= 1)
      << "ClusterController: max_attempts >= 1";

  // One disk read serves the whole fleet: replicate the loaded artifact
  // per replica, moving the original into the last one.
  deploy::LoadedArtifact master =
      deploy::load_artifact(artifact_path_, options_.deploy.manifest_entry);
  const SessionOptions base = options_.deploy.session.has_value()
                                  ? *options_.deploy.session
                                  : master.session_defaults;
  const Shape warm_shape = options_.probe_input.defined()
                               ? options_.probe_input.shape()
                               : Shape{};
  fleet_.reserve(static_cast<size_t>(options_.replicas));
  for (int i = 0; i < options_.replicas; ++i) {
    deploy::DeployOptions per = options_.deploy;
    SessionOptions session_options = base;
    session_options.seed = base.seed + static_cast<uint64_t>(i);
    per.crossbar.seed += static_cast<uint64_t>(i);
    per.session = session_options;
    auto session = i + 1 < options_.replicas
                       ? InferenceSession::open(deploy::replicate(master), per)
                       : InferenceSession::open(std::move(master), per);
    fleet_.push_back(std::make_unique<Replica>(
        i, std::move(session), artifact_path_, std::move(per),
        options_.health, warm_shape));
  }

  timer_ = std::thread([this] { timer_loop(); });
  heartbeat_ = std::thread([this] { heartbeat_loop(); });
}

ClusterController::~ClusterController() { close(); }

std::future<Prediction> ClusterController::submit(Tensor input) {
  return submit(std::move(input),
                std::chrono::microseconds(options_.default_timeout_us));
}

std::future<Prediction> ClusterController::submit(
    Tensor input, std::chrono::microseconds timeout) {
  return submit(std::move(input), timeout, nullptr);
}

std::future<Prediction> ClusterController::submit(
    Tensor input, std::chrono::microseconds timeout,
    trace::TraceContextPtr tctx) {
  // Self-create a cluster-owned context for untraced requests so direct
  // cluster users get timelines too. With tracing off this is the one
  // branch the submit path pays.
  if (!tctx && trace::Tracer::instance().enabled()) {
    tctx = trace::Tracer::instance().begin_trace(
        "", trace::FinishLayer::kCluster);
  }
  const auto now = Clock::now();
  {
    std::lock_guard lock(mutex_);
    if (closed_) {
      throw ServeError(Status::kClosed,
                       "ClusterController::submit after close()");
    }
    ++active_;
  }
  counters_.on_submit();
  auto call = std::make_shared<Call>();
  call->input = std::move(input);
  call->enqueue = now;
  call->deadline = timeout.count() > 0 ? now + timeout : kNoDeadline;
  call->trace = std::move(tctx);
  call->backoff_us = options_.retry_backoff_us;
  std::future<Prediction> future = call->promise.get_future();

  // Admission control: reject *now* rather than time out later. A fleet
  // with no routable replica at all is not overload — those requests are
  // accepted and given their deadline to outlive the outage.
  const RoutingDecision d = route();
  if (d.verdict == Status::kOverloaded) {
    counters_.on_shed();
    call->promise.set_exception(std::make_exception_ptr(ServeError(
        Status::kOverloaded, "all routable replicas saturated")));
    trace::Tracer::instance().finish_if(call->trace,
                                        trace::FinishLayer::kCluster);
    release();
    return future;
  }
  // Until something succeeds, the first accepted input is the probe
  // canary: a fleet quarantined before its first success still heals.
  if (!options_.probe_input.defined() &&
      !have_canary_.load(std::memory_order_relaxed)) {
    std::lock_guard lock(probe_mutex_);
    if (!canary_.defined()) canary_ = call->input;
    have_canary_.store(true, std::memory_order_relaxed);
  }
  start_attempt(call, d);
  return future;
}

RoutingDecision ClusterController::route(int exclude) const {
  // Thread-local scratch: route() runs once per attempt, on submitting,
  // timer and test threads, so the pool buffers must not cost a heap
  // allocation each.
  thread_local std::vector<int> healthy;
  thread_local std::vector<int> degraded;
  thread_local std::vector<int> excluded;  // vetoed — pool of last resort
  healthy.clear();
  degraded.clear();
  excluded.clear();
  bool any_routable = false;
  for (int i = 0; i < static_cast<int>(fleet_.size()); ++i) {
    const HealthState s = fleet_[i]->state();
    if (s == HealthState::kQuarantined) continue;
    any_routable = true;
    if (fleet_[i]->saturated(max_inflight_)) continue;
    (i == exclude ? excluded
     : s == HealthState::kHealthy ? healthy
                                  : degraded)
        .push_back(i);
  }
  const std::vector<int>& pool = !healthy.empty()    ? healthy
                                 : !degraded.empty() ? degraded
                                                     : excluded;

  RoutingDecision d;
  if (pool.empty()) {
    d.verdict = any_routable ? Status::kOverloaded : Status::kReplicaDown;
    return d;
  }
  if (pool.size() == 1) {
    d.replica = pool[0];
    return d;
  }
  // Two scrambled candidate draws (splitmix64 finalizer over a shared
  // tick), lower load wins — power of two choices.
  const uint64_t tick = route_counter_.fetch_add(1, std::memory_order_relaxed);
  const auto pick = [&](uint64_t salt) {
    uint64_t z = tick * 2 + salt + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return static_cast<size_t>((z ^ (z >> 31)) % pool.size());
  };
  const size_t a = pick(0);
  size_t b = pick(1);
  if (b == a) b = (a + 1) % pool.size();
  int winner = pool[a];
  int loser = pool[b];
  if (fleet_[loser]->load() < fleet_[winner]->load()) std::swap(winner, loser);
  d.replica = winner;
  d.runner_up = loser;
  return d;
}

Clock::time_point ClusterController::attempt_deadline_for(
    const Call& call, Clock::time_point now) const {
  auto attempt_deadline = call.deadline;
  if (options_.attempt_timeout_us > 0) {
    attempt_deadline =
        now + std::chrono::microseconds(options_.attempt_timeout_us);
    if (call.deadline != kNoDeadline) {
      attempt_deadline = std::min(attempt_deadline, call.deadline);
    }
  } else if (call.deadline != kNoDeadline) {
    attempt_deadline =
        now + (call.deadline - now) / (options_.max_attempts - call.attempt);
  }
  return attempt_deadline;
}

void ClusterController::start_attempt(const CallPtr& call,
                                      RoutingDecision decision) {
  const auto now = Clock::now();
  if (call->deadline != kNoDeadline && now >= call->deadline) {
    fail(*call, Status::kTimeout,
         "deadline expired after " + std::to_string(call->attempt) +
             " attempt(s)");
    return;
  }
  if (decision.replica < 0) {
    // Nothing routable this instant; back off and let the fleet heal (or
    // the deadline fire) instead of burning the attempt budget. Exhausted:
    // kOverloaded when routable replicas stayed saturated the whole
    // attempt budget, kReplicaDown when the fleet was quarantined.
    if (retry(call)) return;
    fail(*call,
         decision.verdict == Status::kOk ? Status::kReplicaDown
                                         : decision.verdict,
         "no routable replica after " + std::to_string(call->attempt) +
             " attempt(s)");
    return;
  }
  // Per-attempt deadline: a stalled replica costs one attempt, not the
  // whole deadline.
  const int attempt = call->attempt;
  const int routed = decision.replica;
  const auto attempt_deadline = attempt_deadline_for(*call, now);
  call->replica = routed;
  call->attempt_start = now;
  Replica& replica = *fleet_[routed];
  if (call->trace) {
    trace::Tracer::instance().record_span(call->trace, trace::Stage::kDispatch,
                                          now, Clock::now(),
                                          static_cast<uint32_t>(routed));
  }
  replica.begin_attempt();
  // From here on the completion or the timer may own the call: below,
  // only locals and the call's never-written input and trace are read.
  call->open.store(attempt, std::memory_order_release);
  if (attempt_deadline != kNoDeadline) arm(call, attempt_deadline, attempt);
  try {
    replica.submit(call->input, attempt_deadline, call->trace,
                   [this, call, attempt, routed](Prediction result,
                                                 std::exception_ptr error) {
                     on_attempt_done(call, attempt, routed, std::move(result),
                                     std::move(error));
                   });
  } catch (...) {
    // Replica closed between route() and submit(): a failed attempt,
    // re-routed like any other.
    replica.end_attempt();
    if (claim(*call, attempt)) {
      disarm(*call);
      on_attempt_failed(call, routed, /*timed_out=*/false);
    }
  }
}

void ClusterController::on_attempt_done(const CallPtr& call, int attempt,
                                        int replica, Prediction result,
                                        std::exception_ptr error) {
  Replica& r = *fleet_[replica];
  r.end_attempt();
  // Lost the claim: the attempt was abandoned at its deadline and the
  // request has moved on — the late result is dropped.
  if (!claim(*call, attempt)) return;
  disarm(*call);
  if (!error) {
    r.on_success(static_cast<double>(us_between(call->attempt_start,
                                                Clock::now())));
    // Refresh the probe canary opportunistically: skipping a refresh
    // under contention is harmless (any recent good input works), and a
    // per-success contended lock is not.
    if (probe_mutex_.try_lock()) {
      canary_ = call->input;
      have_canary_.store(true, std::memory_order_relaxed);
      probe_mutex_.unlock();
    }
    succeed(*call, std::move(result));
    return;
  }
  if (is_check_error(error)) {
    // A precondition violation (wrong shape, wrong task kind) is the
    // request's fault, not the replica's: any replica would reject it the
    // same way. Deliver it unchanged, without a retry and without touching
    // the replica's health — and never keep its input as the canary.
    {
      std::lock_guard lock(probe_mutex_);
      if (canary_.defined() && canary_.data() == call->input.data()) {
        canary_ = Tensor{};
        have_canary_.store(false, std::memory_order_relaxed);
      }
    }
    fail_with(*call, std::move(error));
    return;
  }
  on_attempt_failed(call, replica, /*timed_out=*/false);
}

void ClusterController::on_attempt_failed(const CallPtr& call, int replica,
                                          bool timed_out) {
  fleet_[replica]->on_failure(timed_out);
  call->last_failed = replica;
  if (retry(call)) return;
  const std::string n = std::to_string(call->attempt);
  if (timed_out ||
      (call->deadline != kNoDeadline && Clock::now() >= call->deadline)) {
    fail(*call, Status::kTimeout, "all " + n + " attempt(s) timed out");
  } else {
    fail(*call, Status::kReplicaDown, "all " + n + " attempt(s) failed");
  }
}

bool ClusterController::retry(const CallPtr& call) {
  if (++call->attempt >= options_.max_attempts) return false;
  counters_.on_retry();
  auto wake = Clock::now() + std::chrono::microseconds(call->backoff_us);
  if (call->deadline != kNoDeadline) wake = std::min(wake, call->deadline);
  call->backoff_us = std::min(call->backoff_us * 2, options_.max_backoff_us);
  arm(call, wake, kRetry);
  return true;
}

bool ClusterController::claim(Call& call, int attempt) {
  int expected = attempt;
  return call.open.compare_exchange_strong(expected, kClaimed,
                                           std::memory_order_acq_rel);
}

void ClusterController::arm(const CallPtr& call, Clock::time_point when,
                            int attempt) {
  bool wake = false;
  {
    std::lock_guard lock(timer_mutex_);
    call->timer = timers_.emplace(when, TimerEntry{call, attempt});
    call->timer_armed = true;
    wake = when < timer_wake_;
  }
  if (wake) timer_cv_.notify_one();
}

void ClusterController::disarm(Call& call) {
  std::lock_guard lock(timer_mutex_);
  if (!call.timer_armed) return;
  call.timer_armed = false;
  timers_.erase(call.timer);
}

void ClusterController::timer_loop() {
  std::unique_lock lock(timer_mutex_);
  while (!timer_stop_) {
    const auto now = Clock::now();
    if (timers_.empty() || timers_.begin()->first > now) {
      timer_wake_ = timers_.empty() ? now + kTimerIdleTick
                                    : timers_.begin()->first;
      timer_cv_.wait_until(lock, timer_wake_);
      continue;
    }
    TimerEntry due = std::move(timers_.begin()->second);
    timers_.erase(timers_.begin());
    due.call->timer_armed = false;
    lock.unlock();
    if (due.attempt == kRetry) {
      start_attempt(due.call, route(due.call->last_failed));
    } else if (claim(*due.call, due.attempt)) {
      // Abandoned at its deadline: the attempt's future result is dropped
      // when it arrives, and the request re-routes.
      on_attempt_failed(due.call, due.call->replica, /*timed_out=*/true);
    }
    due.call.reset();
    lock.lock();
  }
}

void ClusterController::succeed(Call& call, Prediction prediction) {
  counters_.on_success();
  counters_.latency().record(us_between(call.enqueue, Clock::now()));
  const auto resolve_start = Clock::now();
  call.promise.set_value(std::move(prediction));
  if (call.trace) {
    trace::Tracer& tracer = trace::Tracer::instance();
    tracer.record_span(call.trace, trace::Stage::kResolve, resolve_start,
                       Clock::now());
    tracer.finish_if(call.trace, trace::FinishLayer::kCluster);
  }
  release();
}

void ClusterController::fail(Call& call, Status status,
                             const std::string& what) {
  fail_with(call, std::make_exception_ptr(ServeError(status, what)),
            status == Status::kTimeout);
}

void ClusterController::fail_with(Call& call, std::exception_ptr error,
                                  bool timed_out) {
  if (timed_out) {
    counters_.on_timeout();
  } else {
    counters_.on_failure();
  }
  counters_.latency().record(us_between(call.enqueue, Clock::now()));
  call.promise.set_exception(std::move(error));
  trace::Tracer::instance().finish_if(call.trace,
                                      trace::FinishLayer::kCluster);
  release();
}

void ClusterController::release() {
  std::lock_guard lock(mutex_);
  if (--active_ == 0 && closed_) drained_cv_.notify_all();
}

void ClusterController::heartbeat_loop() {
  const auto interval =
      std::chrono::microseconds(options_.heartbeat_interval_us);
  std::unique_lock lock(mutex_);
  while (!closed_) {
    hb_cv_.wait_for(lock, interval, [&] { return closed_; });
    if (closed_) return;
    lock.unlock();
    probe_quarantined();
    lock.lock();
  }
}

Tensor ClusterController::probe_input() {
  if (options_.probe_input.defined()) return options_.probe_input;
  std::lock_guard lock(probe_mutex_);
  return canary_;
}

void ClusterController::probe_quarantined() {
  const Tensor canary = probe_input();
  if (!canary.defined()) return;  // nothing accepted yet
  const auto budget = std::chrono::microseconds(options_.probe_timeout_us);
  for (auto& entry : fleet_) {
    Replica& replica = *entry;
    if (replica.state() != HealthState::kQuarantined) continue;
    counters_.on_probe();
    bool ok = false;
    try {
      auto outcome = replica.submit(canary, budget);
      if (outcome.wait_for(budget) == std::future_status::ready) {
        outcome.get();
        ok = true;
      }
    } catch (...) {
    }
    if (ok) {
      replica.on_probe_success();
    } else {
      replica.on_probe_failure();
      counters_.on_probe_failure();
      if (options_.auto_restart &&
          replica.consecutive_probe_failures() >=
              options_.restart_after_probe_failures) {
        replica.restart();
        counters_.on_restart();
      }
    }
  }
}

void ClusterController::restart_replica(int i) {
  RIPPLE_CHECK(i >= 0 && i < replicas())
      << "ClusterController::restart_replica: bad index " << i;
  fleet_[static_cast<size_t>(i)]->restart();
}

Replica& ClusterController::replica(int i) {
  RIPPLE_CHECK(i >= 0 && i < replicas())
      << "ClusterController::replica: bad index " << i;
  return *fleet_[static_cast<size_t>(i)];
}

std::vector<NodeMetrics> ClusterController::metrics() const {
  std::vector<NodeMetrics> all;
  all.reserve(fleet_.size());
  for (const auto& r : fleet_) all.push_back(r->metrics());
  return all;
}

int64_t ClusterController::queue_depth() const {
  int64_t depth = 0;
  for (const auto& r : fleet_) depth += r->metrics().queue_depth;
  return depth;
}

void ClusterController::close() {
  {
    std::lock_guard lock(mutex_);
    closed_ = true;
  }
  hb_cv_.notify_all();
  std::lock_guard join_lock(join_mutex_);
  {
    // Accepted requests still resolve: their retries run on the timer
    // thread, their attempts on the still-open replicas.
    std::unique_lock lock(mutex_);
    drained_cv_.wait(lock, [&] { return active_ == 0; });
  }
  {
    std::lock_guard lock(timer_mutex_);
    timer_stop_ = true;
  }
  timer_cv_.notify_all();
  if (timer_.joinable()) timer_.join();
  if (heartbeat_.joinable()) heartbeat_.join();
  for (auto& r : fleet_) r->close();
}

bool ClusterController::closed() const {
  std::lock_guard lock(mutex_);
  return closed_;
}

}  // namespace ripple::serve
