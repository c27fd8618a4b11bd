// serve::ModelServer — the multi-tenant front door. The contracts under
// test, in the spirit of the cluster chaos harness (wall-clock free):
//
//   • a salt-0 tenant serves bit-exactly what a direct InferenceSession
//     over the same artifact serves (the server adds routing, not bits);
//   • tenant seed isolation: distinct tenants draw distinct MC streams,
//     each deterministic for its own requests;
//   • quotas, unknown models/versions/entries, and closed servers fail
//     with the typed Status taxonomy, never silently;
//   • hot swap under load: a version swapped mid-traffic drops and
//     duplicates nothing — every future resolves exactly once and the
//     drained-unit conservation ledger balances;
//   • v3 manifest routing: entry weights route exactly (deterministic
//     round-robin), pinned entries serve their own model's bits;
//   • the Prometheus exporter renders the documented families and serves
//     them over the loopback HTTP listener.
#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "deploy/deploy.h"
#include "models/lstm_forecaster.h"
#include "serve/prom.h"
#include "serve/status.h"

namespace ripple {
namespace {

using serve::InferenceSession;
using serve::ModelServer;
using serve::Prediction;
using serve::Regression;
using serve::Request;
using serve::Response;
using serve::ServeError;
using serve::ServerOptions;
using serve::SessionOptions;
using serve::Status;
using serve::TaskKind;
using serve::TenantConfig;

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

SessionOptions forecaster_defaults(uint64_t seed) {
  SessionOptions opts;
  opts.task = TaskKind::kRegression;
  opts.mc_samples = 2;
  opts.seed = seed;
  opts.batch_max_requests = 4;
  opts.batch_max_delay_us = 200;
  return opts;
}

/// A small deployed forecaster artifact at `name` under TempDir; hidden
/// size and seed vary the weights so different files serve different bits.
std::string make_artifact(const char* name, int64_t hidden, uint64_t seed) {
  models::LstmForecaster model(
      {.hidden = hidden, .window = 8},
      {.variant = models::Variant::kProposed});
  model.set_training(false);
  model.deploy();
  const std::string path = ::testing::TempDir() + name;
  deploy::save_artifact(model, path, forecaster_defaults(seed));
  return path;
}

/// The salt-0 oracle: what a direct session over `path` predicts.
Prediction oracle_of(const std::string& path, const Tensor& x,
                     const std::string& entry = {}) {
  deploy::DeployOptions d;
  d.manifest_entry = entry;
  auto session = InferenceSession::open(path, d);
  return session->predict(x);
}

Request request_for(const std::string& tenant, const std::string& model,
                    const Tensor& x) {
  Request r;
  r.tenant = tenant;
  r.model.name = model;
  r.input = x;
  return r;
}

TEST(ModelServer, SaltZeroTenantServesBitExactOracle) {
  const std::string path = make_artifact("srv_oracle.rpla", 8, 900);
  Rng rng(31);
  Tensor x = Tensor::randn({1, 8, 1}, rng);
  const Prediction oracle = oracle_of(path, x);

  ModelServer server;
  server.load_model("fleet", "1", path);
  server.register_tenant({.id = "oracle", .seed_salt = 0});

  Response r = server.serve(request_for("oracle", "fleet", x));
  ASSERT_EQ(r.status, Status::kOk) << r.error;
  EXPECT_EQ(r.model_name, "fleet");
  EXPECT_EQ(r.model_version, "1");
  EXPECT_TRUE(regressions_equal(r.prediction, oracle));
  EXPECT_EQ(server.counters().submitted(), 1u);

  const auto units = server.unit_metrics();
  ASSERT_EQ(units.size(), 1u);
  EXPECT_EQ(units[0].tenant, "oracle");
  EXPECT_EQ(units[0].submitted, 1u);
  EXPECT_EQ(units[0].completed, 1u);
  EXPECT_EQ(units[0].queue_depth, 0);
}

TEST(ModelServer, TenantSeedsAreIsolatedAndDeterministic) {
  const std::string path = make_artifact("srv_iso.rpla", 8, 901);
  Rng rng(32);
  Tensor x = Tensor::randn({1, 8, 1}, rng);

  ModelServer server;  // auto-registers tenants with id-derived salts
  server.load_model("fleet", "1", path);

  Response alice1 = server.serve(request_for("alice", "fleet", x));
  Response alice2 = server.serve(request_for("alice", "fleet", x));
  Response bob = server.serve(request_for("bob", "fleet", x));
  ASSERT_EQ(alice1.status, Status::kOk) << alice1.error;
  ASSERT_EQ(bob.status, Status::kOk) << bob.error;

  // Same tenant, same input → the same draw, bit for bit.
  EXPECT_TRUE(regressions_equal(alice1.prediction, alice2.prediction));
  // Different tenants draw from disjoint MC streams: the means coincide
  // only if the two salted sample sets happened to collide — with
  // mc_samples stochastic masks, the stddevs must differ.
  const auto* a = std::get_if<Regression>(&alice1.prediction);
  const auto* b = std::get_if<Regression>(&bob.prediction);
  ASSERT_TRUE(a != nullptr && b != nullptr);
  EXPECT_FALSE(tensors_equal(a->stddev, b->stddev));

  // Two tenants on one (model, entry) = two serving units.
  EXPECT_EQ(server.unit_metrics().size(), 2u);
}

TEST(ModelServer, QuotaExceededIsTypedAndCounted) {
  const std::string path = make_artifact("srv_quota.rpla", 8, 902);
  Rng rng(33);
  Tensor x = Tensor::randn({1, 8, 1}, rng);

  ModelServer server;
  server.load_model("fleet", "1", path);
  // Two tokens of burst, effectively no refill within the test.
  server.register_tenant(
      {.id = "metered", .quota = {.rate_per_sec = 1e-6, .burst = 2}});

  EXPECT_EQ(server.serve(request_for("metered", "fleet", x)).status,
            Status::kOk);
  EXPECT_EQ(server.serve(request_for("metered", "fleet", x)).status,
            Status::kOk);
  Response rejected = server.serve(request_for("metered", "fleet", x));
  EXPECT_EQ(rejected.status, Status::kQuotaExceeded);
  EXPECT_NE(rejected.error.find("quota"), std::string::npos);

  EXPECT_EQ(server.counters().quota_rejected(), 1u);
  for (const auto& row : server.tenant_metrics()) {
    if (row.tenant != "metered") continue;
    EXPECT_EQ(row.submitted, 2u);
    EXPECT_EQ(row.quota_rejected, 1u);
  }
  // An unlimited tenant is unaffected.
  EXPECT_EQ(server.serve(request_for("other", "fleet", x)).status,
            Status::kOk);
}

TEST(ModelServer, UnregisteredTenantIsRejectedWhenAutoRegistrationIsOff) {
  const std::string path = make_artifact("srv_noauto.rpla", 8, 906);
  Rng rng(36);
  Tensor x = Tensor::randn({1, 8, 1}, rng);
  const Prediction oracle = oracle_of(path, x);

  ServerOptions opts;
  opts.auto_register_tenants = false;
  ModelServer server(opts);
  server.load_model("fleet", "1", path);
  server.register_tenant({.id = "known", .seed_salt = 0});

  Response rejected = server.serve(request_for("stranger", "fleet", x));
  EXPECT_EQ(rejected.status, Status::kQuotaExceeded);
  EXPECT_NE(rejected.error.find("not registered"), std::string::npos);
  EXPECT_EQ(server.counters().quota_rejected(), 1u);
  // The rejected tenant was not registered behind the caller's back.
  for (const auto& row : server.tenant_metrics())
    EXPECT_NE(row.tenant, "stranger");

  Response served = server.serve(request_for("known", "fleet", x));
  ASSERT_EQ(served.status, Status::kOk) << served.error;
  EXPECT_TRUE(regressions_equal(served.prediction, oracle));
  EXPECT_EQ(server.counters().quota_rejected(), 1u);
}

TEST(ModelServer, UnknownModelVersionAndEntryAreTyped) {
  const std::string path = make_artifact("srv_unknown.rpla", 8, 903);
  Rng rng(34);
  Tensor x = Tensor::randn({1, 8, 1}, rng);

  ModelServer server;
  server.load_model("fleet", "1", path);

  Request bad_name = request_for("t", "nope", x);
  EXPECT_EQ(server.serve(std::move(bad_name)).status, Status::kUnknownModel);

  Request bad_version = request_for("t", "fleet", x);
  bad_version.model.version = "9";
  EXPECT_EQ(server.serve(std::move(bad_version)).status,
            Status::kUnknownModel);

  Request bad_entry = request_for("t", "fleet", x);
  bad_entry.model.entry = "nope";
  EXPECT_EQ(server.serve(std::move(bad_entry)).status,
            Status::kUnknownModel);

  EXPECT_EQ(server.counters().unknown_model(), 3u);

  server.close();
  EXPECT_TRUE(server.closed());
  EXPECT_THROW(server.submit(request_for("t", "fleet", x)), ServeError);
}

TEST(ModelServer, RegistryLifecycleRepointsActive) {
  const std::string p1 = make_artifact("srv_v1.rpla", 8, 904);
  const std::string p2 = make_artifact("srv_v2.rpla", 8, 905);

  ModelServer server;
  server.load_model("fleet", "1", p1);
  server.load_model("fleet", "2", p2);
  EXPECT_THROW(server.load_model("fleet", "2", p2), std::runtime_error);

  auto active_version = [&]() -> std::string {
    for (const auto& m : server.models())
      if (m.active) return m.version;
    return {};
  };
  EXPECT_EQ(active_version(), "1");  // first load wins until told otherwise
  server.set_active("fleet", "2");
  EXPECT_EQ(active_version(), "2");
  EXPECT_THROW(server.set_active("fleet", "9"), ServeError);

  // Unloading the active version re-points at the newest remaining.
  server.unload_model("fleet", "2");
  EXPECT_EQ(active_version(), "1");
  server.unload_model("fleet", "1");
  EXPECT_TRUE(server.models().empty());
  EXPECT_EQ(server.counters().unloads(), 2u);
}

// ---- the acceptance test: hot swap under load ------------------------------

TEST(ModelServer, HotSwapUnderLoadDropsAndDuplicatesNothing) {
  const std::string p1 = make_artifact("srv_swap1.rpla", 8, 906);
  const std::string p2 = make_artifact("srv_swap2.rpla", 8, 907);
  Rng rng(35);
  Tensor x = Tensor::randn({1, 8, 1}, rng);
  const Prediction oracle1 = oracle_of(p1, x);
  const Prediction oracle2 = oracle_of(p2, x);
  ASSERT_FALSE(regressions_equal(oracle1, oracle2));

  ModelServer server;
  server.load_model("fleet", "1", p1);
  server.register_tenant({.id = "t", .seed_salt = 0});

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 50;
  std::vector<std::vector<std::future<Prediction>>> futures(kProducers);
  std::atomic<int> submitted_before_swap{0};
  std::vector<std::jthread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        Request r = request_for("t", "fleet", x);
        r.deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        futures[p].push_back(server.submit(std::move(r)));
        submitted_before_swap.fetch_add(1);
      }
    });
  }
  // Swap mid-traffic: wait until the producers are demonstrably in
  // flight, then replace the active version.
  while (submitted_before_swap.load() < kProducers * kPerProducer / 4)
    std::this_thread::yield();
  server.hot_swap("fleet", "2", p2);
  for (auto& t : producers) t.join();

  // Exactly-once: every future ever handed out resolves, with the bits of
  // whichever version served it — nothing dropped, nothing duplicated,
  // nothing from a half-torn-down unit.
  uint64_t served_v1 = 0, served_v2 = 0;
  for (auto& per_producer : futures) {
    for (auto& f : per_producer) {
      const Prediction got = f.get();  // throws on any dropped/failed future
      if (regressions_equal(got, oracle1)) {
        ++served_v1;
      } else if (regressions_equal(got, oracle2)) {
        ++served_v2;
      } else {
        FAIL() << "prediction matches neither version's oracle";
      }
    }
  }
  EXPECT_EQ(served_v1 + served_v2,
            static_cast<uint64_t>(kProducers * kPerProducer));
  EXPECT_GT(served_v1, 0u);  // traffic demonstrably straddled the swap

  EXPECT_EQ(server.counters().swaps(), 1u);
  const auto models = server.models();
  ASSERT_EQ(models.size(), 1u);
  EXPECT_EQ(models[0].version, "2");
  EXPECT_TRUE(models[0].active);

  // The conservation ledger: once the server drains, every request a
  // retired or closed unit ever accepted was completed there.
  server.close();
  EXPECT_EQ(server.counters().submitted(),
            static_cast<uint64_t>(kProducers * kPerProducer));
  EXPECT_EQ(server.counters().drained_submitted(),
            server.counters().submitted());
  EXPECT_EQ(server.counters().drained_completed(),
            server.counters().drained_submitted());
  EXPECT_EQ(server.counters().drained_timeouts(), 0u);
}

TEST(ModelServer, ServeReResolvesVersionlessRequestsAcrossSwap) {
  const std::string p1 = make_artifact("srv_reresolve1.rpla", 8, 916);
  const std::string p2 = make_artifact("srv_reresolve2.rpla", 8, 917);
  Rng rng(41);
  Tensor x = Tensor::randn({1, 8, 1}, rng);
  const Prediction oracle1 = oracle_of(p1, x);
  const Prediction oracle2 = oracle_of(p2, x);

  ModelServer server;
  server.load_model("fleet", "1", p1);
  server.register_tenant({.id = "t", .seed_salt = 0});

  // Version-less serve() calls race a hot swap: the header promises they
  // re-resolve onto whichever version is active when they route — never
  // kUnknownModel because a resolved version vanished mid-call — and the
  // response metadata names the version that actually served the bits.
  //
  // Each producer issues at least kPerProducer requests and keeps going
  // until it has issued one after the swap returned, so v2 takes traffic
  // however fast the producers run. jthreads: if anything throws before
  // they finish, they are stopped and joined instead of aborting the run.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 40;
  std::atomic<int> served_so_far{0};
  std::atomic<bool> swapped{false};
  std::vector<std::vector<Response>> responses(kProducers);
  {
    std::vector<std::jthread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p](std::stop_token stop) {
        bool issued_after_swap = false;
        for (int i = 0;
             (i < kPerProducer || !issued_after_swap) &&
             !stop.stop_requested();
             ++i) {
          const bool after = swapped.load();
          Request r = request_for("t", "fleet", x);
          r.deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(30);
          responses[p].push_back(server.serve(std::move(r)));
          issued_after_swap = issued_after_swap || after;
          served_so_far.fetch_add(1);
        }
      });
    }
    while (served_so_far.load() < kProducers * kPerProducer / 4)
      std::this_thread::yield();
    server.hot_swap("fleet", "2", p2);
    swapped.store(true);
    for (auto& t : producers) t.join();
  }

  uint64_t served_v1 = 0, served_v2 = 0, issued = 0;
  for (const auto& per_producer : responses) {
    EXPECT_GE(per_producer.size(), static_cast<size_t>(kPerProducer));
    issued += per_producer.size();
    for (const Response& r : per_producer) {
      ASSERT_EQ(r.status, Status::kOk) << r.error;
      if (regressions_equal(r.prediction, oracle1)) {
        EXPECT_EQ(r.model_version, "1");
        ++served_v1;
      } else if (regressions_equal(r.prediction, oracle2)) {
        EXPECT_EQ(r.model_version, "2");
        ++served_v2;
      } else {
        FAIL() << "prediction matches neither version's oracle";
      }
    }
  }
  EXPECT_EQ(served_v1 + served_v2, issued);
  EXPECT_GT(served_v2, 0u);  // the swap demonstrably took traffic
}

TEST(ModelServer, RegisterTenantReconfiguresSafelyUnderTraffic) {
  const std::string path = make_artifact("srv_reconf.rpla", 8, 918);
  Rng rng(42);
  Tensor x = Tensor::randn({1, 8, 1}, rng);

  ModelServer server;
  server.load_model("fleet", "1", path);
  server.register_tenant({.id = "t", .seed_salt = 0});

  // Reconfigure the tenant repeatedly while it is mid-submit: requests
  // that resolved the old Tenant object must keep a live reference to it
  // (admission, on_submit, seed salt) — never a freed one.
  // A jthread: a failed ASSERT below returns early, and its destructor
  // then requests the stop and joins instead of aborting.
  std::jthread reconfigurer([&](std::stop_token stop) {
    while (!stop.stop_requested()) {
      server.register_tenant({.id = "t", .seed_salt = 0});
      std::this_thread::yield();
    }
  });
  constexpr int kRequests = 200;
  for (int i = 0; i < kRequests; ++i) {
    Response r = server.serve(request_for("t", "fleet", x));
    ASSERT_EQ(r.status, Status::kOk) << r.error;
  }
  reconfigurer.request_stop();
  reconfigurer.join();
  EXPECT_EQ(server.counters().submitted(),
            static_cast<uint64_t>(kRequests));
}

// ---- v3 manifest routing ---------------------------------------------------

TEST(ModelServer, ManifestWeightsRouteExactlyAndEntriesPin) {
  models::LstmForecaster champion(
      {.hidden = 8, .window = 8}, {.variant = models::Variant::kProposed});
  models::LstmForecaster challenger(
      {.hidden = 6, .window = 8}, {.variant = models::Variant::kProposed});
  champion.set_training(false);
  champion.deploy();
  challenger.set_training(false);
  challenger.deploy();
  const std::string path = ::testing::TempDir() + "srv_ab.rpla";
  deploy::save_manifest({{"champion", 3.0, &champion,
                          forecaster_defaults(910)},
                         {"challenger", 1.0, &challenger,
                          forecaster_defaults(911)}},
                        path);
  Rng rng(36);
  Tensor x = Tensor::randn({1, 8, 1}, rng);
  const Prediction oracle_champ = oracle_of(path, x, "champion");
  const Prediction oracle_chall = oracle_of(path, x, "challenger");

  ModelServer server;
  server.load_model("ab", "1", path);
  server.register_tenant({.id = "t", .seed_salt = 0});

  const auto models = server.models();
  ASSERT_EQ(models.size(), 1u);
  ASSERT_EQ(models[0].entries.size(), 2u);
  EXPECT_EQ(models[0].entries[0].name, "champion");

  // Weighted routing is deterministic round-robin over the 3:1 weights:
  // 40 requests land exactly 30/10, and the response names its entry.
  std::map<std::string, int> by_entry;
  for (int i = 0; i < 40; ++i) {
    Response r = server.serve(request_for("t", "ab", x));
    ASSERT_EQ(r.status, Status::kOk) << r.error;
    ++by_entry[r.model_entry];
    if (r.model_entry == "champion")
      EXPECT_TRUE(regressions_equal(r.prediction, oracle_champ));
    else
      EXPECT_TRUE(regressions_equal(r.prediction, oracle_chall));
  }
  EXPECT_EQ(by_entry["champion"], 30);
  EXPECT_EQ(by_entry["challenger"], 10);

  // Pinning an entry bypasses the weights.
  Request pinned = request_for("t", "ab", x);
  pinned.model.entry = "challenger";
  Response r = server.serve(std::move(pinned));
  ASSERT_EQ(r.status, Status::kOk) << r.error;
  EXPECT_EQ(r.model_entry, "challenger");
  EXPECT_TRUE(regressions_equal(r.prediction, oracle_chall));
}

// ---- cluster-mode units ----------------------------------------------------

TEST(ModelServer, ClusterModeServesThroughReplicaFleets) {
  const std::string path = make_artifact("srv_cluster.rpla", 8, 912);
  Rng rng(37);
  Tensor x = Tensor::randn({1, 8, 1}, rng);

  ServerOptions options;
  options.replicas = 2;
  ModelServer server(options);
  server.load_model("fleet", "1", path);

  for (int i = 0; i < 8; ++i) {
    Response r = server.serve(request_for("t", "fleet", x));
    ASSERT_EQ(r.status, Status::kOk) << r.error;
  }
  const auto units = server.unit_metrics();
  ASSERT_EQ(units.size(), 1u);
  EXPECT_TRUE(units[0].cluster);
  EXPECT_EQ(units[0].submitted, 8u);
  EXPECT_EQ(units[0].completed, 8u);
  EXPECT_EQ(units[0].cluster_succeeded, 8u);
}

// ---- metrics ---------------------------------------------------------------

TEST(ModelServer, PrometheusRenderExposesTheSchema) {
  const std::string path = make_artifact("srv_prom.rpla", 8, 913);
  Rng rng(38);
  Tensor x = Tensor::randn({1, 8, 1}, rng);

  ModelServer server;
  server.load_model("fleet", "1", path);
  server.register_tenant(
      {.id = "metered", .quota = {.rate_per_sec = 1e-6, .burst = 1}});
  ASSERT_EQ(server.serve(request_for("metered", "fleet", x)).status,
            Status::kOk);
  ASSERT_EQ(server.serve(request_for("metered", "fleet", x)).status,
            Status::kQuotaExceeded);

  serve::MetricsExporter exporter(server);
  const std::string text = exporter.render();
  for (const char* needle : {
           "# TYPE ripple_server_requests_total counter",
           "ripple_server_requests_total{result=\"accepted\"} 1",
           "ripple_server_requests_total{result=\"quota_rejected\"} 1",
           "ripple_server_registry_ops_total{op=\"load\"} 1",
           "ripple_tenant_quota_rejected_total{tenant=\"metered\"} 1",
           "# TYPE ripple_unit_latency_microseconds histogram",
           "ripple_unit_requests_total{model=\"fleet\",version=\"1\","
           "entry=\"lstm\",tenant=\"metered\",stage=\"submitted\"} 1",
           "le=\"+Inf\"} 1",
           "# TYPE ripple_unit_queue_depth gauge",
       }) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

TEST(ModelServer, MetricsHttpListenerServesOverLoopback) {
  const std::string path = make_artifact("srv_http.rpla", 8, 914);
  Rng rng(39);
  Tensor x = Tensor::randn({1, 8, 1}, rng);

  ServerOptions options;
  options.metrics_port = 0;  // any free port
  ModelServer server(options);
  server.load_model("fleet", "1", path);
  ASSERT_EQ(server.serve(request_for("t", "fleet", x)).status, Status::kOk);

  const int port = server.metrics_port();
  ASSERT_GT(port, 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const char* get = "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n";
  ASSERT_GT(::write(fd, get, std::strlen(get)), 0);
  std::string reply;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0)
    reply.append(buf, static_cast<size_t>(n));
  ::close(fd);

  EXPECT_NE(reply.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(reply.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(reply.find("ripple_server_requests_total"), std::string::npos);

  server.close();
  EXPECT_EQ(server.metrics_port(), -1);
}

TEST(ModelServer, HealthzAndBuildinfoEndpointsAreRouted) {
  const std::string path = make_artifact("srv_endpoints.rpla", 8, 916);
  ServerOptions options;
  options.metrics_port = 0;
  ModelServer server(options);
  server.load_model("fleet", "1", path);
  const int port = server.metrics_port();
  ASSERT_GT(port, 0);

  const auto http_get = [port](const char* target) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    const std::string get = std::string("GET ") + target +
                            " HTTP/1.1\r\nHost: localhost\r\n\r\n";
    EXPECT_GT(::write(fd, get.data(), get.size()), 0);
    std::string reply;
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0)
      reply.append(buf, static_cast<size_t>(n));
    ::close(fd);
    return reply;
  };

  const std::string health = http_get("/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(health.find("\r\n\r\nok\n"), std::string::npos);

  const std::string build = http_get("/buildinfo");
  EXPECT_NE(build.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(build.find("application/json"), std::string::npos);
  for (const char* key : {"\"git\":", "\"gemm_kernel\":", "\"backends\":",
                          "\"fp32\"", "\"tracing\":", "\"plan_profiling\":"})
    EXPECT_NE(build.find(key), std::string::npos) << key;

  // Unrouted paths — /metrics included — still serve the exposition.
  const std::string metrics = http_get("/metrics");
  EXPECT_NE(metrics.find("ripple_server_requests_total"), std::string::npos);
  const std::string fallback = http_get("/anything-else");
  EXPECT_NE(fallback.find("ripple_server_requests_total"),
            std::string::npos);
}

TEST(ModelServer, WriteAllSurvivesClosedPeer) {
  // Regression for the scrape loop's bare ::write: a peer that closed its
  // read end turns the next write into SIGPIPE, which is fatal by default
  // — the old loop also treated EINTR as the peer closing. write_all
  // sends MSG_NOSIGNAL: the closed pipe surfaces as a false return (this
  // very test would die, not fail, under the old code).
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ::close(sv[1]);  // peer is gone before the first byte
  const std::string big(1 << 20, 'x');  // larger than any socket buffer
  EXPECT_FALSE(serve::write_all(sv[0], big.data(), big.size()));
  ::close(sv[0]);

  // And the happy path still delivers every byte across short writes.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const std::string body(65536, 'y');
  std::jthread reader([&] {
    std::string got;
    char buf[4096];
    ssize_t n;
    while (got.size() < body.size() &&
           (n = ::read(sv[1], buf, sizeof(buf))) > 0)
      got.append(buf, static_cast<size_t>(n));
    EXPECT_EQ(got, body);
  });
  EXPECT_TRUE(serve::write_all(sv[0], body.data(), body.size()));
  reader.join();
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(ModelServer, MetricsScrapeSurvivesClientClosingMidResponse) {
  // Live-listener regression: scrapers that connect, send the GET, and
  // slam the connection shut without reading the response must not kill
  // the exporter thread (or the process). After a burst of such rude
  // scrapes a well-behaved scrape still gets the full exposition.
  const std::string path = make_artifact("srv_sigpipe.rpla", 8, 915);
  ServerOptions options;
  options.metrics_port = 0;
  ModelServer server(options);
  server.load_model("fleet", "1", path);

  const int port = server.metrics_port();
  ASSERT_GT(port, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));

  const char* get = "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n";
  for (int i = 0; i < 16; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    ASSERT_GT(::write(fd, get, std::strlen(get)), 0);
    // Reset on close (SO_LINGER 0) so the exporter's in-flight response
    // hits a dead socket, not a graceful FIN with a live buffer.
    struct linger lg = {1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    ::close(fd);
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  ASSERT_GT(::write(fd, get, std::strlen(get)), 0);
  std::string reply;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0)
    reply.append(buf, static_cast<size_t>(n));
  ::close(fd);
  EXPECT_NE(reply.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(reply.find("ripple_server_requests_total"), std::string::npos);
  server.close();
}

}  // namespace
}  // namespace ripple
