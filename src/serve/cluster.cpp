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

int64_t us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::microseconds>(to - from)
      .count();
}

}  // namespace

ClusterController::ClusterController(const std::string& artifact_path,
                                     ClusterOptions options)
    : options_(std::move(options)), artifact_path_(artifact_path) {
  RIPPLE_CHECK(options_.replicas >= 1) << "ClusterController: replicas >= 1";
  RIPPLE_CHECK(options_.dispatch_threads >= 1)
      << "ClusterController: dispatch_threads >= 1";
  RIPPLE_CHECK(options_.dispatch_chunk >= 1)
      << "ClusterController: dispatch_chunk >= 1";
  RIPPLE_CHECK(options_.max_attempts >= 1)
      << "ClusterController: max_attempts >= 1";

  // One disk read serves the whole fleet: replicate the loaded artifact
  // per replica, moving the original into the last one.
  deploy::LoadedArtifact master =
      deploy::load_artifact(artifact_path_, options_.deploy.manifest_entry);
  const SessionOptions base = options_.deploy.session.has_value()
                                  ? *options_.deploy.session
                                  : master.session_defaults;
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
        options_.health));
  }

  dispatchers_.reserve(static_cast<size_t>(options_.dispatch_threads));
  for (int t = 0; t < options_.dispatch_threads; ++t) {
    dispatchers_.emplace_back([this] { dispatcher_loop(); });
  }
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
  std::promise<Prediction> promise;
  std::future<Prediction> future = promise.get_future();
  const auto now = Clock::now();
  const auto deadline = timeout.count() > 0 ? now + timeout : kNoDeadline;

  std::lock_guard lock(mutex_);
  if (closed_) {
    throw ServeError(Status::kClosed, "ClusterController::submit after close()");
  }
  counters_.on_submit();

  // Admission control: reject *now* rather than time out later. A fleet
  // with no routable replica at all is not overload — those requests are
  // accepted and given their deadline to outlive the outage.
  const bool queue_full =
      static_cast<int64_t>(queue_.size()) >= options_.queue_limit;
  const RoutingDecision d = queue_full ? RoutingDecision{} : route();
  if (queue_full || d.verdict == Status::kOverloaded) {
    counters_.on_shed();
    promise.set_exception(std::make_exception_ptr(ServeError(
        Status::kOverloaded, queue_full ? "controller queue full"
                                        : "all routable replicas saturated")));
    trace::Tracer::instance().finish_if(tctx, trace::FinishLayer::kCluster);
    return future;
  }

  queue_.push_back(Task{std::move(input), std::move(promise), now, deadline,
                        std::move(tctx)});
  cv_.notify_one();
  return future;
}

RoutingDecision ClusterController::route(int exclude) const {
  // Thread-local scratch: route() runs once per attempt on every
  // dispatcher, so the pool buffers must not cost a heap allocation each.
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
    if (fleet_[i]->saturated(options_.max_inflight_per_replica)) continue;
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

void ClusterController::dispatcher_loop() {
  std::vector<Task> chunk;
  std::vector<Attempt> first;
  for (;;) {
    chunk.clear();
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
      if (queue_.empty()) return;  // closed and drained
      const auto take =
          std::min(queue_.size(),
                   static_cast<size_t>(options_.dispatch_chunk));
      for (size_t i = 0; i < take; ++i) {
        chunk.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    // Start every first attempt before awaiting any result: the chunk
    // coalesces into the replicas' batches together, and by the time the
    // collect pass reaches task i its future is usually already resolved.
    first.clear();
    first.resize(chunk.size());
    for (size_t i = 0; i < chunk.size(); ++i) {
      if (chunk[i].trace) {
        // Cluster-level queue wait (detail 1 distinguishes it from a
        // batcher's queue-wait span on the same timeline).
        trace::Tracer::instance().record_span(
            chunk[i].trace, trace::Stage::kQueueWait, chunk[i].enqueue,
            Clock::now(), 1);
      }
      start_attempt(chunk[i], /*attempt=*/0, /*exclude=*/-1, first[i]);
    }
    for (size_t i = 0; i < chunk.size(); ++i) {
      serve_task(chunk[i], first[i]);
    }
  }
}

Clock::time_point ClusterController::attempt_deadline_for(
    const Task& task, Clock::time_point now, int attempt) const {
  auto attempt_deadline = task.deadline;
  if (options_.attempt_timeout_us > 0) {
    attempt_deadline =
        now + std::chrono::microseconds(options_.attempt_timeout_us);
    if (task.deadline != kNoDeadline) {
      attempt_deadline = std::min(attempt_deadline, task.deadline);
    }
  } else if (task.deadline != kNoDeadline) {
    attempt_deadline =
        now + (task.deadline - now) / (options_.max_attempts - attempt);
  }
  return attempt_deadline;
}

void ClusterController::start_attempt(Task& task, int attempt, int exclude,
                                      Attempt& a) {
  const auto now = Clock::now();
  a = Attempt{};
  a.start = now;
  if (task.deadline != kNoDeadline && now >= task.deadline) {
    a.expired = true;
    return;
  }
  a.decision = route(exclude);
  if (a.decision.replica < 0) return;
  // Per-attempt deadline: a stalled replica costs one attempt, not the
  // whole deadline.
  a.deadline = attempt_deadline_for(task, now, attempt);
  const auto budget =
      a.deadline == kNoDeadline
          ? std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::hours(24 * 365))
          : std::chrono::microseconds(us_between(now, a.deadline));
  Replica& replica = *fleet_[a.decision.replica];
  replica.begin_attempt();
  try {
    a.outcome = replica.submit(task.input, budget, task.trace);
    a.dispatched = true;
    if (task.trace) {
      trace::Tracer::instance().record_span(
          task.trace, trace::Stage::kDispatch, now, Clock::now(),
          static_cast<uint32_t>(a.decision.replica));
    }
  } catch (...) {
    // Replica closed between route() and submit() — serve_task treats it
    // as a failed attempt and re-routes.
  }
}

void ClusterController::serve_task(Task& task, Attempt& a) {
  const auto resolve_latency = [&] {
    counters_.latency().record(us_between(task.enqueue, Clock::now()));
  };
  const auto finish_trace = [&] {
    trace::Tracer::instance().finish_if(task.trace,
                                        trace::FinishLayer::kCluster);
  };
  const auto fail = [&](Status status, const std::string& what) {
    if (status == Status::kTimeout) {
      counters_.on_timeout();
    } else {
      counters_.on_failure();
    }
    resolve_latency();
    task.promise.set_exception(
        std::make_exception_ptr(ServeError(status, what)));
    finish_trace();
  };
  const auto backoff_sleep = [&](int64_t backoff_us) {
    auto wait = std::chrono::microseconds(backoff_us);
    if (task.deadline != kNoDeadline) {
      const auto now = Clock::now();
      if (now >= task.deadline) return;
      wait = std::min(
          wait, std::chrono::duration_cast<std::chrono::microseconds>(
                    task.deadline - now));
    }
    if (wait.count() > 0) std::this_thread::sleep_for(wait);
  };

  int attempt = 0;
  int64_t backoff = options_.retry_backoff_us;
  bool last_attempt_timed_out = false;
  int last_failed_replica = -1;
  for (;;) {
    if (a.expired) {
      fail(Status::kTimeout, "deadline expired after " +
                                 std::to_string(attempt) + " attempt(s)");
      return;
    }
    const int routed = a.decision.replica;
    if (routed < 0) {
      // Nothing routable this instant; back off and let the fleet heal
      // (or the deadline fire) instead of burning the attempt budget.
      ++attempt;
      if (attempt >= options_.max_attempts) {
        // kOverloaded: routable replicas existed but stayed saturated the
        // whole attempt budget; kReplicaDown: the fleet was quarantined.
        fail(a.decision.verdict == Status::kOk ? Status::kReplicaDown
                                               : a.decision.verdict,
             "no routable replica after " + std::to_string(attempt) +
                 " attempt(s)");
        return;
      }
      counters_.on_retry();
      backoff_sleep(backoff);
      backoff = std::min(backoff * 2, options_.max_backoff_us);
      start_attempt(task, attempt, last_failed_replica, a);
      continue;
    }
    Replica& replica = *fleet_[routed];
    bool ready = false;
    if (a.dispatched) {
      if (a.deadline == kNoDeadline) {
        a.outcome.wait();
        ready = true;
      } else {
        ready = a.outcome.wait_until(a.deadline) == std::future_status::ready;
      }
    }

    if (ready) {
      try {
        Prediction prediction = a.outcome.get();
        replica.end_attempt();
        replica.on_success(
            static_cast<double>(us_between(a.start, Clock::now())));
        // Refresh the probe canary opportunistically: skipping a refresh
        // under contention is harmless (any recent good input works), and
        // a per-success contended lock is not.
        if (probe_mutex_.try_lock()) {
          last_good_input_ = task.input;
          have_last_good_ = true;
          probe_mutex_.unlock();
        }
        counters_.on_success();
        resolve_latency();
        const auto resolve_start = Clock::now();
        task.promise.set_value(std::move(prediction));
        if (task.trace) {
          trace::Tracer::instance().record_span(task.trace,
                                                trace::Stage::kResolve,
                                                resolve_start, Clock::now());
          finish_trace();
        }
        return;
      } catch (const CheckError&) {
        // A precondition violation (wrong shape, wrong task kind) is the
        // request's fault, not the replica's: any replica would reject it
        // the same way. Deliver it unchanged, without a retry and without
        // touching the replica's health.
        replica.end_attempt();
        counters_.on_failure();
        resolve_latency();
        task.promise.set_exception(std::current_exception());
        finish_trace();
        return;
      } catch (...) {
        replica.end_attempt();
        replica.on_failure(/*timed_out=*/false);
        last_attempt_timed_out = false;
        last_failed_replica = routed;
      }
    } else {
      // Attempt abandoned at its deadline (or never dispatched — replica
      // closed under us): the future is discarded (a late result resolves
      // dead shared state, harmlessly) and the request re-routes.
      replica.end_attempt();
      replica.on_failure(/*timed_out=*/a.dispatched);
      last_attempt_timed_out = a.dispatched;
      last_failed_replica = routed;
    }

    ++attempt;
    if (attempt >= options_.max_attempts) {
      if (last_attempt_timed_out ||
          (task.deadline != kNoDeadline && Clock::now() >= task.deadline)) {
        fail(Status::kTimeout, "all " + std::to_string(attempt) +
                                   " attempt(s) timed out");
      } else {
        fail(Status::kReplicaDown,
             "all " + std::to_string(attempt) + " attempt(s) failed");
      }
      return;
    }
    counters_.on_retry();
    backoff_sleep(backoff);
    backoff = std::min(backoff * 2, options_.max_backoff_us);
    start_attempt(task, attempt, last_failed_replica, a);
  }
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
  return have_last_good_ ? last_good_input_ : Tensor{};
}

void ClusterController::probe_quarantined() {
  const Tensor canary = probe_input();
  if (!canary.defined()) return;  // nothing served successfully yet
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
  std::lock_guard lock(mutex_);
  return static_cast<int64_t>(queue_.size());
}

void ClusterController::close() {
  {
    std::lock_guard lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
  hb_cv_.notify_all();
  std::lock_guard join_lock(join_mutex_);
  for (auto& t : dispatchers_) {
    if (t.joinable()) t.join();
  }
  dispatchers_.clear();
  if (heartbeat_.joinable()) heartbeat_.join();
  for (auto& r : fleet_) r->close();
}

bool ClusterController::closed() const {
  std::lock_guard lock(mutex_);
  return closed_;
}

}  // namespace ripple::serve
