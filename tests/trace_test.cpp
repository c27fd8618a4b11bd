// serve::trace — end-to-end request tracing. Contracts under test:
//
//   • span completeness: a request served through the full stack
//     (ModelServer → ClusterController → Replica → AsyncBatcher →
//     InferenceSession) leaves a timeline covering every layer it
//     crossed — admission, queue wait, dispatch, batch assembly,
//     execute, resolve — under one trace id;
//   • head sampling is deterministic under a fixed sequence: after
//     reset(), tenant request k is sampled iff k % sample_every == 0;
//   • ring overflow drops (overwrite-oldest, counted) instead of
//     blocking a request;
//   • slow-threshold capture promotes unsampled requests;
//   • the Chrome trace-event export is well-formed JSON with the span
//     keys chrome://tracing requires;
//   • concurrent begin/record/finish against concurrent exports is
//     data-race free (the 8-thread hammer is the TSAN target);
//   • plan profiling attributes compiled-step nanoseconds per fused op
//     and aggregates across a session's plans for the metrics endpoint.
#include "serve/trace.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "deploy/deploy.h"
#include "deploy/plan.h"
#include "models/lstm_forecaster.h"
#include "serve/batcher.h"
#include "serve/prom.h"
#include "serve/server.h"
#include "serve/session.h"
#include "tensor/random.h"

namespace ripple {
namespace {

using serve::AsyncBatcher;
using serve::InferenceSession;
using serve::ModelServer;
using serve::Prediction;
using serve::Request;
using serve::Response;
using serve::ServerOptions;
using serve::SessionOptions;
using serve::Status;
using serve::TaskKind;
namespace trace = serve::trace;

SessionOptions forecaster_defaults(uint64_t seed) {
  SessionOptions opts;
  opts.task = TaskKind::kRegression;
  opts.mc_samples = 2;
  opts.seed = seed;
  opts.batch_max_requests = 4;
  opts.batch_max_delay_us = 200;
  return opts;
}

std::string make_artifact(const char* name, int64_t hidden, uint64_t seed) {
  models::LstmForecaster model({.hidden = hidden, .window = 8},
                               {.variant = models::Variant::kProposed});
  model.set_training(false);
  model.deploy();
  const std::string path = ::testing::TempDir() + name;
  deploy::save_artifact(model, path, forecaster_defaults(seed));
  return path;
}

Request request_for(const std::string& tenant, const std::string& model,
                    const Tensor& x) {
  Request r;
  r.tenant = tenant;
  r.model.name = model;
  r.input = x;
  return r;
}

/// Every test drives the process-wide Tracer singleton: reset + configure
/// going in, disable + restore defaults going out, so tests are order-
/// independent within this (serial) binary.
class TracingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::Tracer& t = trace::Tracer::instance();
    t.set_enabled(false);
    t.reset();
    trace::TracerOptions o;
    o.sample_every = 1;  // capture everything unless a test re-configures
    t.configure(o);
    t.set_enabled(true);
  }
  void TearDown() override {
    trace::Tracer& t = trace::Tracer::instance();
    t.set_enabled(false);
    t.reset();
    t.configure(trace::TracerOptions{});
  }
};

/// Stages seen per trace id in a snapshot.
std::map<uint64_t, std::set<trace::Stage>> stages_by_trace(
    const std::vector<trace::Event>& events) {
  std::map<uint64_t, std::set<trace::Stage>> out;
  for (const trace::Event& e : events) out[e.trace_id].insert(e.stage);
  return out;
}

TEST_F(TracingTest, BatcherTimelineCoversEveryStage) {
  models::LstmForecaster model({.hidden = 8, .window = 8},
                               {.variant = models::Variant::kProposed});
  model.set_training(false);
  model.deploy();
  InferenceSession session(model, forecaster_defaults(77));
  Rng rng(5);
  Tensor x = Tensor::randn({1, 8, 1}, rng);
  {
    AsyncBatcher batcher(session);
    std::vector<std::future<Prediction>> futs;
    for (int i = 0; i < 4; ++i) futs.push_back(batcher.submit(x.clone()));
    for (auto& f : futs) (void)f.get();
    batcher.close();  // join workers: every finish_if has run
  }

  const auto events = trace::Tracer::instance().snapshot_events();
  const auto traces = stages_by_trace(events);
  EXPECT_EQ(traces.size(), 4u);
  for (const auto& [id, stages] : traces) {
    for (const trace::Stage want :
         {trace::Stage::kRequest, trace::Stage::kQueueWait,
          trace::Stage::kBatchAssembly, trace::Stage::kExecute,
          trace::Stage::kResolve}) {
      EXPECT_TRUE(stages.count(want))
          << "trace " << id << " missing stage " << trace::stage_name(want);
    }
  }
  EXPECT_EQ(trace::Tracer::instance().captured(), 4u);
  // Stage histograms see every finished request, not just captured ones.
  EXPECT_EQ(trace::Tracer::instance()
                .stage_latency(trace::Stage::kRequest)
                .snapshot()
                .count,
            4u);
}

TEST_F(TracingTest, ServerClusterTimelineCoversAllFiveLayers) {
  const std::string path = make_artifact("trace_cluster.rpla", 8, 920);
  Rng rng(6);
  Tensor x = Tensor::randn({1, 8, 1}, rng);

  ServerOptions options;
  options.replicas = 2;
  ModelServer server(options);
  server.load_model("fleet", "1", path);
  for (int i = 0; i < 4; ++i) {
    Response r = server.serve(request_for("tenant-a", "fleet", x));
    ASSERT_EQ(r.status, Status::kOk) << r.error;
  }

  // The exporter renders the trace families while the server is live.
  serve::MetricsExporter exporter(server);
  const std::string text = exporter.render();
  for (const char* needle : {
           "# TYPE ripple_stage_latency_microseconds histogram",
           "ripple_stage_latency_microseconds_bucket{stage=\"request\"",
           "ripple_trace_requests_total{event=\"started\"}",
           "# TYPE ripple_unit_uncertainty gauge",
           "ripple_unit_uncertainty_drift{",
           "ripple_replica_uncertainty_drift{",
       }) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
  server.close();  // drain: all finish_if calls have run

  const auto events = trace::Tracer::instance().snapshot_events();
  const auto traces = stages_by_trace(events);
  ASSERT_EQ(traces.size(), 4u);
  for (const auto& [id, stages] : traces) {
    for (const trace::Stage want :
         {trace::Stage::kRequest, trace::Stage::kAdmission,
          trace::Stage::kQueueWait, trace::Stage::kDispatch,
          trace::Stage::kBatchAssembly, trace::Stage::kExecute,
          trace::Stage::kResolve}) {
      EXPECT_TRUE(stages.count(want))
          << "trace " << id << " missing stage " << trace::stage_name(want);
    }
  }
}

TEST_F(TracingTest, HeadSamplingIsDeterministicAfterReset) {
  trace::Tracer& t = trace::Tracer::instance();
  trace::TracerOptions o;
  o.sample_every = 4;
  t.configure(o);

  const auto pattern_of = [&](const std::string& tenant) {
    std::vector<bool> pattern;
    for (int i = 0; i < 8; ++i) {
      trace::TraceContextPtr ctx =
          t.begin_trace(tenant, trace::FinishLayer::kBatcher);
      pattern.push_back(ctx->sampled);
      t.finish(ctx);
    }
    return pattern;
  };

  const std::vector<bool> want = {true, false, false, false,
                                  true, false, false, false};
  EXPECT_EQ(pattern_of("tenant-a"), want);
  // An independent tenant starts at its own sequence head.
  EXPECT_EQ(pattern_of("tenant-b"), want);
  // reset() rewinds the sequences: the pattern repeats exactly.
  t.reset();
  EXPECT_EQ(pattern_of("tenant-a"), want);
}

TEST_F(TracingTest, RingOverflowDropsAreCountedNotBlocking) {
  trace::Tracer& t = trace::Tracer::instance();
  trace::TracerOptions o;
  o.sample_every = 1;
  o.ring_capacity = 8;
  t.configure(o);

  // A fresh thread gets a fresh ring at the configured capacity (existing
  // rings keep their size); the ring outlives the thread for export.
  std::jthread writer([&] {
    for (int i = 0; i < 100; ++i) {
      trace::TraceContextPtr ctx =
          t.begin_trace("overflow", trace::FinishLayer::kBatcher);
      t.finish(ctx);  // flushes the umbrella span
    }
  });
  writer.join();

  EXPECT_EQ(t.captured(), 100u);
  EXPECT_GE(t.dropped_events(), 92u);  // 100 events into 8 slots
  const auto events = t.snapshot_events();
  EXPECT_LE(events.size(), 8u);
  EXPECT_FALSE(events.empty());
  // Oldest events were overwritten: the survivors are the newest ids.
  for (const trace::Event& e : events) EXPECT_GT(e.trace_id, 92u);
}

TEST_F(TracingTest, SlowThresholdCapturesUnsampledRequests) {
  trace::Tracer& t = trace::Tracer::instance();
  trace::TracerOptions o;
  o.sample_every = 0;  // sampling off entirely
  t.configure(o);

  trace::TraceContextPtr fast =
      t.begin_trace("slow-tenant", trace::FinishLayer::kBatcher);
  EXPECT_FALSE(fast->sampled);
  t.finish(fast);
  EXPECT_EQ(t.captured(), 0u);  // no threshold: unsampled → uncaptured

  o.slow_threshold_us = 1000;
  t.configure(o);
  trace::TraceContextPtr slow =
      t.begin_trace("slow-tenant", trace::FinishLayer::kBatcher);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  t.finish(slow);
  EXPECT_EQ(t.captured(), 1u);
}

TEST_F(TracingTest, ChromeTraceExportIsWellFormed) {
  trace::Tracer& t = trace::Tracer::instance();
  trace::TraceContextPtr ctx =
      t.begin_trace("chrome", trace::FinishLayer::kBatcher);
  const auto now = std::chrono::steady_clock::now();
  t.record_span(ctx, trace::Stage::kExecute, now,
                now + std::chrono::microseconds(120), /*detail=*/1);
  t.finish(ctx);

  const std::string json = t.chrome_trace_json();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json;
  for (const char* needle :
       {"\"name\":\"execute\"", "\"name\":\"request\"", "\"cat\":\"serve\"",
        "\"ph\":\"X\"", "\"ts\":", "\"dur\":", "\"tenant\":\"chrome\"",
        "\"displayTimeUnit\":\"ms\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
  const std::string path = ::testing::TempDir() + "trace_export.json";
  EXPECT_TRUE(t.write_chrome_trace(path));
}

TEST_F(TracingTest, ConcurrentTracingAndExportHammer) {
  // The TSAN target: 8 writer threads begin/record/finish while the main
  // thread continuously snapshots, exports and reads counters. Nothing to
  // assert beyond conservation — the sanitizer owns the verdict.
  trace::Tracer& t = trace::Tracer::instance();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::jthread> writers;
  writers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&t, w] {
      const std::string tenant = "hammer-" + std::to_string(w);
      for (int i = 0; i < kPerThread; ++i) {
        trace::TraceContextPtr ctx =
            t.begin_trace(tenant, trace::FinishLayer::kBatcher);
        const auto now = std::chrono::steady_clock::now();
        t.record_span(ctx, trace::Stage::kQueueWait, now, now);
        t.record_span(ctx, trace::Stage::kExecute, now, now, 1);
        t.record_span(ctx, trace::Stage::kResolve, now, now);
        t.finish(ctx);
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    (void)t.snapshot_events();
    (void)t.chrome_trace_json();
    (void)t.dropped_events();
    (void)t.stage_latency(trace::Stage::kExecute).snapshot();
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(t.started(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(t.captured(), static_cast<uint64_t>(kThreads * kPerThread));
}

TEST_F(TracingTest, SpanOverflowPastPerRequestCapIsCounted) {
  trace::Tracer& t = trace::Tracer::instance();
  trace::TraceContextPtr ctx =
      t.begin_trace("spammy", trace::FinishLayer::kBatcher);
  const auto now = std::chrono::steady_clock::now();
  for (uint32_t i = 0; i < trace::TraceData::kMaxSpans + 10; ++i)
    t.record_span(ctx, trace::Stage::kExecute, now, now);
  t.finish(ctx);
  EXPECT_GE(t.dropped_events(), 10u);
}

TEST_F(TracingTest, PlanProfilingAttributesPerOpTime) {
  models::LstmForecaster model({.hidden = 8, .window = 8},
                               {.variant = models::Variant::kProposed});
  model.set_training(false);
  model.deploy();
  InferenceSession session(model, forecaster_defaults(78));
  Rng rng(7);
  Tensor x = Tensor::randn({1, 8, 1}, rng);
  ASSERT_TRUE(session.precompile(x.shape()).compiled);

  deploy::set_plan_profiling(true);
  for (int i = 0; i < 3; ++i) (void)session.predict(x);
  deploy::set_plan_profiling(false);

  const serve::PlanInfo info = session.plan_info(x.shape());
  ASSERT_TRUE(info.compiled);
  ASSERT_FALSE(info.op_profile.empty());
  uint64_t gemm_ns = 0;
  uint64_t gates_ns = 0;
  for (const deploy::PlanOpProfile& op : info.op_profile) {
    EXPECT_GE(op.step, 0);  // per-step rows from plan_info
    if (std::string(deploy::op_tag_group(op.tag)) == "gemm")
      gemm_ns += op.total_ns;
    if (op.tag == deploy::OpTag::kLstmGates) gates_ns += op.total_ns;
  }
  EXPECT_GT(gemm_ns, 0u) << "GEMM-backed steps accumulated no time";
  // The fused gate step is elementwise (its gate GEMMs are linear steps).
  EXPECT_GT(gates_ns, 0u);
  EXPECT_STREQ(deploy::op_tag_group(deploy::OpTag::kLstmGates), "epilogue");

  // The session-level aggregate folds steps by tag (step == -1) and is
  // what UnitMetricsRow::plan_ops exports.
  const auto agg = session.plan_op_profiles();
  ASSERT_FALSE(agg.empty());
  std::set<deploy::OpTag> seen;
  for (const deploy::PlanOpProfile& op : agg) {
    EXPECT_EQ(op.step, -1);
    EXPECT_GT(op.calls, 0u);
    EXPECT_TRUE(seen.insert(op.tag).second) << "duplicate tag in aggregate";
  }

  // Off again: further executes add nothing.
  const auto before = session.plan_op_profiles();
  (void)session.predict(x);
  const auto after = session.plan_op_profiles();
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(before[i].calls, after[i].calls);
}

TEST_F(TracingTest, DisabledTracerBeginsNoContexts) {
  trace::Tracer& t = trace::Tracer::instance();
  t.set_enabled(false);
  EXPECT_EQ(t.begin_trace("anyone", trace::FinishLayer::kBatcher), nullptr);
  EXPECT_EQ(t.started(), 0u);
}

}  // namespace
}  // namespace ripple
