// serve::ClusterController — the chaos harness. Failures are injected
// through the replicas' forward hooks (crash = the worker throws, stall =
// the worker sleeps, ramp = latency grows per forward) and the assertions
// are the fleet contracts, never wall-clock numbers:
//
//   • exactly-once: every future submit() ever returned resolves exactly
//     once — with a result or a typed ServeError — and the counters obey
//     submitted == succeeded + failed + timeouts + shed after close();
//   • results are bit-exact against some replica's single-thread predict
//     oracle (per-replica seeds make the fleet an ensemble, so "some");
//   • a crashing replica quarantines itself and traffic fails over, while a
//     malformed request fails typed without touching replica health;
//   • a stalled replica costs one attempt budget, not the deadline;
//   • quarantined replicas recover through probes (after a hot restart
//     when the probes keep failing), and the fleet re-converges once the
//     chaos stops.
#include "serve/cluster.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "deploy/deploy.h"
#include "models/lstm_forecaster.h"
#include "serve/status.h"
#include "tensor/check.h"

namespace ripple {
namespace {

using serve::ClusterController;
using serve::ClusterOptions;
using serve::HealthState;
using serve::InferenceSession;
using serve::Prediction;
using serve::Regression;
using serve::RoutingDecision;
using serve::ServeError;
using serve::SessionOptions;
using serve::Status;
using serve::TaskKind;

bool tensors_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

bool regressions_equal(const Prediction& got, const Prediction& want) {
  const auto* g = std::get_if<Regression>(&got);
  const auto* w = std::get_if<Regression>(&want);
  return g && w && g->samples == w->samples &&
         tensors_equal(g->mean, w->mean) &&
         tensors_equal(g->stddev, w->stddev);
}

/// Writes (once per binary) a small deployed forecaster artifact the
/// cluster tests open their fleets from.
const std::string& artifact_path() {
  static const std::string path = [] {
    models::LstmForecaster model({.hidden = 8, .window = 8},
                                 {.variant = models::Variant::kProposed});
    model.set_training(false);
    model.deploy();
    SessionOptions defaults;
    defaults.task = TaskKind::kRegression;
    defaults.mc_samples = 2;
    defaults.seed = 900;
    const std::string p = ::testing::TempDir() + "cluster_fleet.rpla";
    deploy::save_artifact(model, p, defaults);
    return p;
  }();
  return path;
}

/// Small fleet, fast heartbeat, short backoffs — tuned so quarantine and
/// probe recovery happen within milliseconds, not test-minutes.
ClusterOptions cluster_options(int replicas) {
  ClusterOptions opts;
  opts.replicas = replicas;
  SessionOptions session;
  session.task = TaskKind::kRegression;
  session.mc_samples = 2;
  session.seed = 900;
  session.batch_max_requests = 4;
  session.batch_max_delay_us = 200;
  session.batcher_threads = 1;
  opts.deploy.session = session;
  opts.default_timeout_us = 10'000'000;
  opts.max_attempts = 3;
  opts.retry_backoff_us = 200;
  opts.max_backoff_us = 5'000;
  opts.heartbeat_interval_us = 1'000;
  opts.probe_timeout_us = 1'000'000;
  // Stay routable until quarantine: with the degraded tier kicking in on
  // the first failure, a crashing replica would be soft-isolated before it
  // ever accumulates enough consecutive failures to quarantine.
  opts.health.degraded_after = 3;
  opts.health.quarantine_after = 3;
  opts.health.probe_successes = 2;
  opts.restart_after_probe_failures = 3;
  return opts;
}

Tensor test_input(uint64_t seed) {
  Rng rng(seed);
  return Tensor::randn({1, 8, 1}, rng);
}

/// Polls `pred` until true or ~5 s elapse. The chaos tests use this for
/// convergence ("eventually healthy"), never for latency assertions.
template <typename Pred>
bool eventually(Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

TEST(Cluster, ServesBitExactAgainstSomeReplicaOracle) {
  ClusterOptions opts = cluster_options(2);
  opts.probe_input = test_input(1);
  ClusterController cluster(artifact_path(), opts);
  ASSERT_EQ(cluster.replicas(), 2);

  // Per-replica seeds: the fleet is an ensemble; every result must match
  // one of the replica sessions exactly.
  const Tensor x = test_input(2);
  std::vector<Prediction> oracles;
  for (int i = 0; i < cluster.replicas(); ++i)
    oracles.push_back(cluster.replica(i).session().predict(x));
  EXPECT_FALSE(regressions_equal(oracles[0], oracles[1]))
      << "per-replica seeds should differentiate the ensemble";

  std::vector<std::future<Prediction>> futures;
  for (int i = 0; i < 12; ++i) futures.push_back(cluster.submit(x));
  for (auto& f : futures) {
    const Prediction got = f.get();
    EXPECT_TRUE(regressions_equal(got, oracles[0]) ||
                regressions_equal(got, oracles[1]));
  }
  cluster.close();
  EXPECT_EQ(cluster.counters().submitted(), 12u);
  EXPECT_EQ(cluster.counters().succeeded(), 12u);
  EXPECT_EQ(cluster.counters().latency().count(), 12u);

  // Typed reject-after-close.
  try {
    cluster.submit(x);
    FAIL() << "submit after close() must throw";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.status(), Status::kClosed);
  }
}

TEST(Cluster, MalformedRequestFailsTypedWithoutTouchingReplicaHealth) {
  // A request that breaks a session precondition (here [1,8,3] into a
  // forecaster expecting [1,8,1]) is the caller's fault: every replica
  // would reject it alike. Its CheckError must reach the caller unchanged,
  // unretried, and must not count against any replica's health — or a few
  // bad requests would quarantine a healthy fleet.
  ClusterOptions opts = cluster_options(2);
  opts.probe_input = test_input(1);
  ClusterController cluster(artifact_path(), opts);

  Rng rng(3);
  const Tensor bad = Tensor::randn({1, 8, 3}, rng);
  constexpr int kBad = 4;  // > quarantine_after per replica if counted
  for (int i = 0; i < kBad; ++i) {
    EXPECT_THROW(cluster.submit(bad).get(), CheckError) << "request " << i;
  }
  EXPECT_EQ(cluster.counters().retries(), 0u);
  EXPECT_EQ(cluster.counters().failed(), static_cast<uint64_t>(kBad));
  for (const auto& m : cluster.metrics()) {
    EXPECT_EQ(m.state, HealthState::kHealthy) << "replica " << m.id;
    EXPECT_EQ(m.consecutive_failures, 0) << "replica " << m.id;
    EXPECT_EQ(m.failures, 0u) << "replica " << m.id;
  }

  // The fleet keeps serving good traffic bit-exactly.
  const Tensor x = test_input(2);
  std::vector<Prediction> oracles;
  for (int i = 0; i < cluster.replicas(); ++i)
    oracles.push_back(cluster.replica(i).session().predict(x));
  const Prediction got = cluster.submit(x).get();
  EXPECT_TRUE(regressions_equal(got, oracles[0]) ||
              regressions_equal(got, oracles[1]));
  cluster.close();
  const auto& c = cluster.counters();
  EXPECT_EQ(c.submitted(), static_cast<uint64_t>(kBad) + 1);
  EXPECT_EQ(c.succeeded(), 1u);
  EXPECT_EQ(c.submitted(),
            c.succeeded() + c.failed() + c.timeouts() + c.shed());
}

TEST(Cluster, CrashingReplicaQuarantinesAndTrafficFailsOver) {
  ClusterOptions opts = cluster_options(2);
  opts.probe_input = test_input(3);
  ClusterOptions probe_off = opts;
  probe_off.auto_restart = false;  // recovery path gets its own test
  ClusterController cluster(artifact_path(), probe_off);
  const Tensor x = test_input(4);

  // Replica 0 crashes every forward (probes included).
  cluster.replica(0).set_forward_hook(
      [](int64_t) { throw std::runtime_error("chaos: crash"); });

  // Sequential traffic: every request must still succeed — retries
  // re-route to replica 1 — and the crash run quarantines replica 0.
  for (int i = 0; i < 20; ++i) {
    EXPECT_NO_THROW(cluster.submit(x).get()) << "request " << i;
  }
  EXPECT_EQ(cluster.replica(0).state(), HealthState::kQuarantined);
  EXPECT_GT(cluster.counters().retries(), 0u);

  // Quarantined replicas receive no routed traffic.
  for (int i = 0; i < 10; ++i) {
    const RoutingDecision d = cluster.route();
    EXPECT_EQ(d.replica, 1);
  }

  // Chaos off: probes re-earn Healthy and the fleet re-converges.
  cluster.replica(0).set_forward_hook({});
  EXPECT_TRUE(eventually([&] {
    return cluster.replica(0).state() == HealthState::kHealthy;
  })) << "quarantined replica did not recover through probes";
  EXPECT_GT(cluster.counters().probes(), 0u);

  cluster.close();
  const auto& c = cluster.counters();
  EXPECT_EQ(c.submitted(), 20u);
  EXPECT_EQ(c.succeeded() + c.failed() + c.timeouts() + c.shed(),
            c.submitted());
}

TEST(Cluster, QuarantineInAHealthyFleetIsProbedWithinAFewBeats) {
  ClusterOptions opts = cluster_options(2);
  opts.probe_input = test_input(3);
  opts.heartbeat_interval_us = 2'000;
  opts.auto_restart = false;
  ClusterController cluster(artifact_path(), opts);
  const Tensor x = test_input(4);

  // A healthy fleet idles for several beats before anything goes wrong.
  cluster.submit(x).get();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_EQ(cluster.counters().probes(), 0u);

  cluster.replica(0).set_forward_hook(
      [](int64_t) { throw std::runtime_error("chaos: crash"); });
  for (int i = 0; i < 20 && cluster.replica(0).state() !=
                                HealthState::kQuarantined;
       ++i) {
    EXPECT_NO_THROW(cluster.submit(x).get()) << "request " << i;
  }
  ASSERT_EQ(cluster.replica(0).state(), HealthState::kQuarantined);

  // The first probe of the new quarantine comes within a few heartbeat
  // intervals, not after some longer idle sleep.
  const auto quarantined = std::chrono::steady_clock::now();
  auto waited = std::chrono::steady_clock::duration::zero();
  while (cluster.counters().probes() == 0 && waited < std::chrono::seconds(1)) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    waited = std::chrono::steady_clock::now() - quarantined;
  }
  ASSERT_GT(cluster.counters().probes(), 0u);
  EXPECT_LE(waited, 10 * std::chrono::microseconds(opts.heartbeat_interval_us))
      << "first probe after "
      << std::chrono::duration_cast<std::chrono::microseconds>(waited).count()
      << " us";
  cluster.close();
}

TEST(Cluster, StalledReplicaCostsOneAttemptNotTheDeadline) {
  ClusterOptions opts = cluster_options(2);
  opts.probe_input = test_input(5);
  opts.attempt_timeout_us = 25'000;  // stall detection budget
  opts.auto_restart = false;
  ClusterController cluster(artifact_path(), opts);
  const Tensor x = test_input(6);

  std::atomic<bool> stalling{true};
  cluster.replica(0).set_forward_hook([&](int64_t) {
    if (stalling.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(120));
    }
  });

  for (int i = 0; i < 10; ++i) {
    EXPECT_NO_THROW(cluster.submit(x).get()) << "request " << i;
  }
  // Abandoned attempts surfaced as replica timeouts and re-routes.
  EXPECT_GT(cluster.replica(0).metrics().timeouts, 0u);
  EXPECT_GT(cluster.counters().retries(), 0u);

  stalling.store(false);  // let the drain finish fast
  cluster.close();
  const auto& c = cluster.counters();
  EXPECT_EQ(c.succeeded(), c.submitted());
}

TEST(Cluster, OverloadShedsWithTypedStatus) {
  ClusterOptions opts = cluster_options(2);
  opts.probe_input = test_input(7);
  opts.max_inflight_per_replica = 2;
  opts.max_attempts = 8;  // accepted work rides out the saturation window
  opts.retry_backoff_us = 2'000;
  opts.max_backoff_us = 20'000;
  ClusterController cluster(artifact_path(), opts);
  const Tensor x = test_input(8);

  // Both replicas slow: every forward takes ~60 ms, so a tight burst of
  // submits puts max_inflight_per_replica attempts on each replica, and
  // the rest of the burst finds every routable replica saturated.
  for (int i = 0; i < cluster.replicas(); ++i) {
    cluster.replica(i).set_forward_hook([](int64_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(60));
    });
  }

  std::vector<std::future<Prediction>> futures;
  for (int i = 0; i < 16; ++i) futures.push_back(cluster.submit(x));

  uint64_t ok = 0, overloaded = 0, other = 0;
  for (auto& f : futures) {
    try {
      f.get();
      ++ok;
    } catch (const ServeError& e) {
      (e.status() == Status::kOverloaded ? overloaded : other) += 1;
    }
  }
  cluster.close();

  // The burst cannot all fit: admission control must have shed some of it
  // with the typed back-off signal — and everything still resolved.
  EXPECT_GT(overloaded, 0u);
  EXPECT_GT(ok, 0u);
  EXPECT_EQ(ok + overloaded + other, 16u);
  const auto& c = cluster.counters();
  EXPECT_EQ(c.submitted(), 16u);
  EXPECT_GE(c.shed(), 1u);
  EXPECT_EQ(c.succeeded() + c.failed() + c.timeouts() + c.shed(),
            c.submitted());
}

TEST(Cluster, AutoRestartRespawnsACrashLoopedReplica) {
  ClusterOptions opts = cluster_options(2);
  opts.probe_input = test_input(9);
  opts.restart_after_probe_failures = 2;
  ClusterController cluster(artifact_path(), opts);
  const Tensor x = test_input(10);

  cluster.replica(0).set_forward_hook(
      [](int64_t) { throw std::runtime_error("chaos: crash loop"); });
  // Drive replica 0 into quarantine…
  for (int i = 0; i < 20; ++i) cluster.submit(x).get();
  ASSERT_EQ(cluster.replica(0).state(), HealthState::kQuarantined);

  // …then let the heartbeat probe it: the hook survives the respawn, so
  // probes keep failing and the controller keeps hot-restarting.
  EXPECT_TRUE(eventually([&] { return cluster.replica(0).restarts() >= 1; }))
      << "failed probes did not trigger a hot restart";
  EXPECT_GT(cluster.counters().probe_failures(), 0u);
  EXPECT_EQ(cluster.replica(0).state(), HealthState::kQuarantined)
      << "a restarted replica must re-earn Healthy through probes";

  // Chaos off: the respawned replica serves probes and rejoins the fleet,
  // bit-exact against its own fresh session oracle.
  cluster.replica(0).set_forward_hook({});
  ASSERT_TRUE(eventually([&] {
    return cluster.replica(0).state() == HealthState::kHealthy;
  }));
  const Prediction oracle = cluster.replica(0).session().predict(x);
  const Prediction direct =
      cluster.replica(0)
          .submit(x, std::chrono::microseconds(1'000'000))
          .get();
  EXPECT_TRUE(regressions_equal(direct, oracle));
  cluster.close();
}

TEST(Cluster, FleetQuarantinedBeforeAnySuccessHealsOnTheFirstInput) {
  // probe_input unset (the default) and nothing served yet: the canary is
  // the first input the cluster accepted, so a fleet quarantined before
  // its first success still gets probed back to Healthy.
  ClusterOptions opts = cluster_options(2);
  ASSERT_FALSE(opts.probe_input.defined());
  opts.auto_restart = false;  // recovery through probes alone
  ClusterController cluster(artifact_path(), opts);
  const Tensor x = test_input(14);

  // Both replicas crash every forward (probes included) until both are
  // quarantined — within the first 4 requests — then the hooks clear.
  for (int i = 0; i < 2; ++i) {
    cluster.replica(i).set_forward_hook(
        [](int64_t) { throw std::runtime_error("chaos: crash"); });
  }
  for (int i = 0; i < 4; ++i) {
    if (cluster.replica(0).state() == HealthState::kQuarantined &&
        cluster.replica(1).state() == HealthState::kQuarantined)
      break;
    EXPECT_THROW(cluster.submit(x).get(), ServeError) << "request " << i;
  }
  ASSERT_EQ(cluster.replica(0).state(), HealthState::kQuarantined);
  ASSERT_EQ(cluster.replica(1).state(), HealthState::kQuarantined);
  EXPECT_EQ(cluster.counters().succeeded(), 0u);
  for (int i = 0; i < 2; ++i) cluster.replica(i).set_forward_hook({});

  // Healthy within probe_successes + 1 probe rounds per replica: one
  // round may straddle the hook change, then the successes it takes.
  const uint64_t probes_before = cluster.counters().probes();
  EXPECT_TRUE(eventually([&] {
    return cluster.replica(0).state() == HealthState::kHealthy &&
           cluster.replica(1).state() == HealthState::kHealthy;
  })) << "the fleet did not heal without probe_input";
  EXPECT_LE(cluster.counters().probes() - probes_before,
            static_cast<uint64_t>((opts.health.probe_successes + 1) *
                                  cluster.replicas()));

  // The next request serves bit-exactly against its replica's oracle.
  std::vector<Prediction> oracles;
  for (int i = 0; i < cluster.replicas(); ++i)
    oracles.push_back(cluster.replica(i).session().predict(x));
  const Prediction got = cluster.submit(x).get();
  EXPECT_TRUE(regressions_equal(got, oracles[0]) ||
              regressions_equal(got, oracles[1]));
  cluster.close();
}

TEST(Cluster, CloseResolvesRequestsWaitingOutTheirBackoff) {
  // Every first attempt crashes; the retries wait out a 200 ms backoff on
  // the timer thread. close() in that window must still resolve every
  // accepted future — here with a result, since the chaos stops first.
  ClusterOptions opts = cluster_options(2);
  opts.probe_input = test_input(15);
  opts.retry_backoff_us = 200'000;
  opts.max_backoff_us = 200'000;
  opts.health.degraded_after = 1'000;  // stay routable for the retries
  opts.health.quarantine_after = 1'000;
  ClusterController cluster(artifact_path(), opts);
  const Tensor x = test_input(16);
  std::vector<Prediction> oracles;
  for (int i = 0; i < cluster.replicas(); ++i)
    oracles.push_back(cluster.replica(i).session().predict(x));

  std::atomic<bool> crashing{true};
  for (int i = 0; i < cluster.replicas(); ++i) {
    cluster.replica(i).set_forward_hook([&](int64_t) {
      if (crashing.load()) throw std::runtime_error("chaos: crash");
    });
  }
  constexpr int kRequests = 6;
  std::vector<std::future<Prediction>> futures;
  for (int i = 0; i < kRequests; ++i) futures.push_back(cluster.submit(x));
  ASSERT_TRUE(eventually([&] {
    return cluster.counters().retries() >= static_cast<uint64_t>(kRequests);
  }));
  crashing.store(false);
  cluster.close();

  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << "close() returned before every accepted request resolved";
    const Prediction got = f.get();
    EXPECT_TRUE(regressions_equal(got, oracles[0]) ||
                regressions_equal(got, oracles[1]));
  }
  const auto& c = cluster.counters();
  EXPECT_EQ(c.submitted(), static_cast<uint64_t>(kRequests));
  EXPECT_EQ(c.succeeded(), c.submitted());
}

TEST(Cluster, ManualRestartKeepsServingBitExact) {
  ClusterOptions opts = cluster_options(2);
  opts.probe_input = test_input(11);
  ClusterController cluster(artifact_path(), opts);
  const Tensor x = test_input(12);

  const Prediction before = cluster.replica(0).session().predict(x);
  cluster.submit(x).get();
  cluster.restart_replica(0);
  EXPECT_EQ(cluster.replica(0).restarts(), 1u);
  EXPECT_EQ(cluster.replica(0).state(), HealthState::kHealthy);
  // Same artifact + same per-replica configuration ⇒ same predictions.
  const Prediction after = cluster.replica(0).session().predict(x);
  EXPECT_TRUE(regressions_equal(after, before));
  for (int i = 0; i < 6; ++i) EXPECT_NO_THROW(cluster.submit(x).get());
  cluster.close();
}

TEST(Cluster, RoutingPrefersLowerLoadAndSkipsQuarantined) {
  ClusterOptions opts = cluster_options(3);
  opts.probe_input = test_input(13);
  opts.auto_restart = false;
  opts.max_inflight_per_replica = 64;  // the 100 pinned attempts saturate
  ClusterController cluster(artifact_path(), opts);

  // Pin load onto replica 0: power-of-two-choices must never pick it over
  // an idle candidate.
  for (int i = 0; i < 10; ++i) cluster.replica(0).begin_attempt();
  for (int i = 0; i < 50; ++i) {
    const RoutingDecision d = cluster.route();
    ASSERT_EQ(d.verdict, Status::kOk);
    EXPECT_NE(d.replica, 0) << "p2c picked the loaded replica";
  }

  // Quarantine replica 1: it must vanish from the candidate pool, leaving
  // the idle replica 2 as the only winner.
  for (int i = 0; i < opts.health.quarantine_after; ++i)
    cluster.replica(1).on_failure(false);
  ASSERT_EQ(cluster.replica(1).state(), HealthState::kQuarantined);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(cluster.route().replica, 2);
  }

  // Saturate everything routable: the verdict turns kOverloaded — the
  // admission-control shed signal.
  for (int i = 0; i < 100; ++i) {
    cluster.replica(0).begin_attempt();
    cluster.replica(2).begin_attempt();
  }
  EXPECT_EQ(cluster.route().verdict, Status::kOverloaded);
  // And with the rest quarantined too, it turns kReplicaDown.
  for (int i = 0; i < opts.health.quarantine_after; ++i) {
    cluster.replica(0).on_failure(false);
    cluster.replica(2).on_failure(false);
  }
  EXPECT_EQ(cluster.route().verdict, Status::kReplicaDown);

  for (int i = 0; i < 110; ++i) cluster.replica(0).end_attempt();
  for (int i = 0; i < 100; ++i) cluster.replica(2).end_attempt();
  cluster.close();
}

// ---- seeded chaos property sweep -------------------------------------------
// (replicas × chaos kind) under multi-threaded load: whatever the chaos
// does, every future resolves exactly once, the counters balance, and
// every success is bit-exact against some replica oracle.

enum class Chaos { kCrash, kStall, kRamp };

const char* chaos_name(Chaos c) {
  switch (c) {
    case Chaos::kCrash:
      return "crash";
    case Chaos::kStall:
      return "stall";
    case Chaos::kRamp:
      return "ramp";
  }
  return "?";
}

void run_chaos_sweep(int replicas, Chaos chaos) {
  SCOPED_TRACE(std::string(chaos_name(chaos)) + " x " +
               std::to_string(replicas) + " replicas");
  ClusterOptions opts = cluster_options(replicas);
  opts.probe_input = test_input(20);
  opts.attempt_timeout_us = 30'000;
  ClusterController cluster(artifact_path(), opts);

  // Three distinct request tensors and their per-replica oracles.
  std::vector<Tensor> pool;
  for (uint64_t s = 0; s < 3; ++s) pool.push_back(test_input(30 + s));
  std::vector<std::vector<Prediction>> oracles(pool.size());
  for (size_t p = 0; p < pool.size(); ++p)
    for (int r = 0; r < replicas; ++r)
      oracles[p].push_back(cluster.replica(r).session().predict(pool[p]));

  // Chaos on replica 0, deterministic per forward count.
  std::atomic<int64_t> forwards{0};
  cluster.replica(0).set_forward_hook([&, chaos](int64_t) {
    const int64_t n = forwards.fetch_add(1);
    switch (chaos) {
      case Chaos::kCrash:
        if (n % 2 == 0) throw std::runtime_error("chaos: crash");
        break;
      case Chaos::kStall:
        if (n % 3 == 0)
          std::this_thread::sleep_for(std::chrono::milliseconds(40));
        break;
      case Chaos::kRamp:
        std::this_thread::sleep_for(
            std::chrono::milliseconds(std::min<int64_t>(n * 2, 50)));
        break;
    }
  });

  const int kProducers = 3;
  const int kPerProducer = 6;
  std::atomic<int> resolved{0};
  std::atomic<int> succeeded{0};
  std::atomic<int> mismatched{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng choice(500 + static_cast<uint64_t>(p));
      for (int i = 0; i < kPerProducer; ++i) {
        const size_t pick = static_cast<size_t>(
            choice.randint(0, static_cast<int64_t>(pool.size()) - 1));
        auto future = cluster.submit(pool[pick]);
        try {
          const Prediction got = future.get();
          ++succeeded;
          bool matched = false;
          for (const Prediction& want : oracles[pick])
            matched = matched || regressions_equal(got, want);
          if (!matched) ++mismatched;
        } catch (const ServeError&) {
          // Typed failure — resolved is all the contract requires.
        }
        ++resolved;
      }
    });
  }
  for (auto& t : producers) t.join();
  cluster.close();

  const int total = kProducers * kPerProducer;
  EXPECT_EQ(resolved.load(), total) << "a future never resolved";
  EXPECT_EQ(mismatched.load(), 0);
  EXPECT_GT(succeeded.load(), 0);
  const auto& c = cluster.counters();
  EXPECT_EQ(c.submitted(), static_cast<uint64_t>(total));
  EXPECT_EQ(c.succeeded() + c.failed() + c.timeouts() + c.shed(),
            c.submitted());
  EXPECT_EQ(c.succeeded(), static_cast<uint64_t>(succeeded.load()));
}

TEST(ClusterChaosSweep, CrashTwoReplicas) { run_chaos_sweep(2, Chaos::kCrash); }
TEST(ClusterChaosSweep, CrashThreeReplicas) {
  run_chaos_sweep(3, Chaos::kCrash);
}
TEST(ClusterChaosSweep, StallTwoReplicas) { run_chaos_sweep(2, Chaos::kStall); }
TEST(ClusterChaosSweep, StallThreeReplicas) {
  run_chaos_sweep(3, Chaos::kStall);
}
TEST(ClusterChaosSweep, RampTwoReplicas) { run_chaos_sweep(2, Chaos::kRamp); }
TEST(ClusterChaosSweep, RampThreeReplicas) { run_chaos_sweep(3, Chaos::kRamp); }

}  // namespace
}  // namespace ripple
