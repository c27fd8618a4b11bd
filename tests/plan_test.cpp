// deploy::compile / serve plan cache — compiled execution plans must be
// bit-exact drop-ins for the graph path. Coverage: all four zoo models
// compiled vs graph (raw stacked MC outputs and aggregated predictions),
// the kFp32/kQuantSim/kCrossbar artifact backends, predict_into ≡
// predict, plan_info/precompile introspection (fusion + lazy-stem stats),
// every documented fallback reason, plan invalidation after in-place
// weight mutation, and an 8-thread mixed predict/predict_into hammer.
#include "deploy/plan.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "deploy/deploy.h"
#include "models/lstm_forecaster.h"
#include "models/m5.h"
#include "models/resnet.h"
#include "models/unet.h"
#include "serve/session.h"
#include "tensor/random.h"

namespace ripple {
namespace {

using deploy::Backend;
using deploy::DeployOptions;
using serve::Classification;
using serve::ExecutionPolicy;
using serve::InferenceSession;
using serve::PlanInfo;
using serve::Prediction;
using serve::Regression;
using serve::Segmentation;
using serve::SessionOptions;
using serve::TaskKind;

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

SessionOptions options_for(TaskKind task, int samples = 4,
                           uint64_t seed = 29) {
  SessionOptions opts;
  opts.task = task;
  opts.mc_samples = samples;
  opts.seed = seed;
  return opts;
}

models::VariantConfig proposed() {
  return {.variant = models::Variant::kProposed};
}

void expect_bit_equal(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           sizeof(float) * static_cast<size_t>(a.numel())))
      << what;
}

void expect_prediction_bit_equal(const Prediction& a, const Prediction& b,
                                 const char* what) {
  ASSERT_EQ(a.index(), b.index()) << what;
  if (const auto* ca = std::get_if<Classification>(&a)) {
    const auto& cb = std::get<Classification>(b);
    expect_bit_equal(ca->mean_probs, cb.mean_probs, what);
    expect_bit_equal(ca->variance, cb.variance, what);
    expect_bit_equal(ca->entropy, cb.entropy, what);
    EXPECT_EQ(ca->predictions, cb.predictions) << what;
    EXPECT_EQ(ca->samples, cb.samples) << what;
  } else if (const auto* ra = std::get_if<Regression>(&a)) {
    const auto& rb = std::get<Regression>(b);
    expect_bit_equal(ra->mean, rb.mean, what);
    expect_bit_equal(ra->stddev, rb.stddev, what);
    EXPECT_EQ(ra->samples, rb.samples) << what;
  } else {
    const auto& sa = std::get<Segmentation>(a);
    const auto& sb = std::get<Segmentation>(b);
    expect_bit_equal(sa.mean_probs, sb.mean_probs, what);
    EXPECT_EQ(sa.samples, sb.samples) << what;
  }
}

/// The acceptance contract: on the same deployed model, a compiled session
/// serves bit-exactly what the graph oracle serves — raw stacked MC
/// outputs, aggregated predictions, and predict_into. Sessions run
/// sequentially (one session per model at a time).
template <typename ModelT>
void check_compiled_matches_graph(ModelT& model, const SessionOptions& base,
                                  const Tensor& x, const char* tag) {
  model.set_training(false);
  model.deploy();

  Tensor graph_stacked;
  Prediction graph_pred;
  {
    SessionOptions opts = base;
    opts.compile = false;
    InferenceSession oracle(model, opts);
    graph_stacked = oracle.mc_outputs(x);
    graph_pred = oracle.predict(x);
  }

  SessionOptions opts = base;
  opts.compile = true;
  InferenceSession session(model, opts);
  PlanInfo info = session.precompile(x.shape());
  ASSERT_TRUE(info.compiled) << tag << ": " << info.fallback_reason;
  EXPECT_GT(info.stats.steps, 0) << tag;
  EXPECT_GT(info.stats.constants, 0) << tag;

  expect_bit_equal(graph_stacked, session.mc_outputs(x), tag);
  expect_prediction_bit_equal(graph_pred, session.predict(x), tag);

  Prediction into;
  session.predict_into(x, into);
  expect_prediction_bit_equal(graph_pred, into, tag);
  // Steady state: reuse the same Prediction storage.
  session.predict_into(x, into);
  expect_prediction_bit_equal(graph_pred, into, tag);
}

TEST(Plan, ResNetCompiledMatchesGraph) {
  models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 4},
                             proposed());
  Rng rng(3);
  check_compiled_matches_graph(model,
                               options_for(TaskKind::kClassification, 4),
                               Tensor::randn({3, 3, 16, 16}, rng), "resnet");
}

TEST(Plan, M5CompiledMatchesGraph) {
  models::M5 model({.classes = 8, .width = 4, .input_length = 256},
                   proposed());
  Rng rng(4);
  check_compiled_matches_graph(model,
                               options_for(TaskKind::kClassification, 4),
                               Tensor::randn({2, 1, 256}, rng), "m5");
}

TEST(Plan, LstmCompiledMatchesGraph) {
  models::LstmForecaster model({.hidden = 8, .window = 12}, proposed());
  Rng rng(5);
  check_compiled_matches_graph(model, options_for(TaskKind::kRegression, 4),
                               Tensor::randn({4, 12, 1}, rng), "lstm");
}

TEST(Plan, UNetCompiledMatchesGraph) {
  models::UNet model({.base_channels = 4, .activation_bits = 4}, proposed());
  Rng rng(6);
  check_compiled_matches_graph(model,
                               options_for(TaskKind::kSegmentation, 4),
                               Tensor::randn({2, 1, 32, 32}, rng), "unet");
}

// SpinDrop exercises the element-dropout mask constants instead of the
// proposed affine path.
TEST(Plan, SpinDropVariantCompiledMatchesGraph) {
  models::M5 model({.classes = 8, .width = 4, .input_length = 256},
                   {.variant = models::Variant::kSpinDrop});
  Rng rng(7);
  check_compiled_matches_graph(model,
                               options_for(TaskKind::kClassification, 4),
                               Tensor::randn({2, 1, 256}, rng), "spindrop");
}

TEST(Plan, StatsReportFusionAndLazyStem) {
  models::LstmForecaster model({.hidden = 8, .window = 12}, proposed());
  model.set_training(false);
  model.deploy();
  InferenceSession session(model, options_for(TaskKind::kRegression, 4));
  PlanInfo info = session.precompile({2, 12, 1});
  ASSERT_TRUE(info.compiled) << info.fallback_reason;
  // The LSTM gate block alone absorbs a dozen traced ops per timestep.
  EXPECT_GT(info.stats.fused_away, 0);
  // The t=0 recurrent GEMM over the zero initial state folds away.
  EXPECT_GT(info.stats.folded_constants, 0);
  EXPECT_GT(info.stats.arena_slots, 0);
  EXPECT_GT(info.stats.arena_bytes, 0);
  EXPECT_LE(info.stats.steps, info.stats.traced_ops);

  // plan_info reports the same entry without recompiling.
  PlanInfo again = session.plan_info({2, 12, 1});
  EXPECT_TRUE(again.compiled);
  EXPECT_EQ(again.stats.steps, info.stats.steps);
}

TEST(Plan, ResNetRunsDeterministicStemAtUniformRows) {
  models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 4},
                             proposed());
  model.set_training(false);
  model.deploy();
  InferenceSession session(model, options_for(TaskKind::kClassification, 4));
  PlanInfo info = session.precompile({2, 3, 16, 16});
  ASSERT_TRUE(info.compiled) << info.fallback_reason;
  // The stem (conv → norm) ahead of the first stochastic affine runs at
  // 1/T rows: the batched-MC lazy-stem transform.
  EXPECT_GT(info.stats.uniform_steps, 0);
  EXPECT_GT(info.stats.fused_away, 0);
}

TEST(Plan, FallbackReasonsAreReported) {
  models::LstmForecaster model({.hidden = 8, .window = 12}, proposed());
  model.set_training(false);
  model.deploy();
  {
    SessionOptions opts = options_for(TaskKind::kRegression, 4);
    opts.compile = false;
    InferenceSession session(model, opts);
    PlanInfo info = session.precompile({1, 12, 1});
    EXPECT_FALSE(info.compiled);
    EXPECT_NE(info.fallback_reason.find("disabled"), std::string::npos)
        << info.fallback_reason;
  }
  {
    SessionOptions opts = options_for(TaskKind::kRegression, 4);
    opts.policy = ExecutionPolicy::kSerial;
    InferenceSession session(model, opts);
    PlanInfo info = session.precompile({1, 12, 1});
    EXPECT_FALSE(info.compiled);
    EXPECT_NE(info.fallback_reason.find("serial"), std::string::npos)
        << info.fallback_reason;
  }
  {
    // Never-seen shape: no entry, empty reason.
    InferenceSession session(model, options_for(TaskKind::kRegression, 4));
    PlanInfo info = session.plan_info({7, 12, 1});
    EXPECT_FALSE(info.compiled);
    EXPECT_TRUE(info.fallback_reason.empty()) << info.fallback_reason;
  }
}

TEST(Plan, UndeployedModelServesFromGraph) {
  models::LstmForecaster model({.hidden = 8, .window = 12}, proposed());
  model.set_training(false);  // not deployed
  InferenceSession session(model, options_for(TaskKind::kRegression, 4));
  PlanInfo info = session.precompile({1, 12, 1});
  EXPECT_FALSE(info.compiled);
  EXPECT_NE(info.fallback_reason.find("not deployed"), std::string::npos)
      << info.fallback_reason;
  // The graph path still serves the request.
  Rng rng(8);
  Regression r = session.regress(Tensor::randn({1, 12, 1}, rng));
  EXPECT_EQ(r.samples, 4);
}

TEST(Plan, InvalidateDropsPlansAndRecompiles) {
  models::LstmForecaster model({.hidden = 8, .window = 12}, proposed());
  model.set_training(false);
  model.deploy();
  InferenceSession session(model, options_for(TaskKind::kRegression, 4));
  Rng rng(9);
  Tensor x = Tensor::randn({2, 12, 1}, rng);
  ASSERT_TRUE(session.precompile(x.shape()).compiled);
  Regression before = session.regress(x);

  // In-place weight mutation (the fault-injection contract): drop the
  // plans, re-serve, recompile.
  auto params = model.parameters();
  ASSERT_FALSE(params.empty());
  params[0]->var.value().data()[0] += 0.5f;
  session.invalidate_packed_weights();
  EXPECT_FALSE(session.plan_info(x.shape()).compiled);

  Regression after = session.regress(x);
  EXPECT_NE(before.mean.data()[0], after.mean.data()[0]);
  // Serving recompiled the shape; the new plan matches the mutated graph.
  ASSERT_TRUE(session.plan_info(x.shape()).compiled);
  params[0]->var.value().data()[0] -= 0.5f;
  session.invalidate_packed_weights();
  Regression restored = session.regress(x);
  expect_bit_equal(before.mean, restored.mean, "restored weights");
}

TEST(Plan, CompilingPredictServesTheVerifiedOutput) {
  // Compiling a shape executes the plan twice, on the traced and on a
  // perturbed input, to verify it against the graph; the compiling call
  // then serves the verified traced-input output instead of a third run.
  models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 4},
                             proposed());
  model.set_training(false);
  model.deploy();
  InferenceSession session(model, options_for(TaskKind::kClassification, 4));
  Rng rng(12);
  Tensor x = Tensor::randn({3, 3, 16, 16}, rng);
  deploy::set_plan_profiling(true);
  const Prediction first = session.predict(x);
  const PlanInfo info = session.plan_info(x.shape());
  deploy::set_plan_profiling(false);
  ASSERT_TRUE(info.compiled) << info.fallback_reason;
  ASSERT_FALSE(info.op_profile.empty());
  for (const deploy::PlanOpProfile& op : info.op_profile)
    EXPECT_EQ(op.calls, 2u) << "step " << op.step << " (" << op.name << ")";
  expect_prediction_bit_equal(first, session.predict(x), "compiling call");
}

TEST(Plan, ChunkedRequestsCompilePerOffset) {
  models::LstmForecaster model({.hidden = 8, .window = 12}, proposed());
  model.set_training(false);
  model.deploy();
  SessionOptions opts = options_for(TaskKind::kRegression, 4);
  opts.max_batch = 8;  // chunk_rows = 2
  Tensor graph_out;
  {
    SessionOptions graph = opts;
    graph.compile = false;
    InferenceSession oracle(model, graph);
    Rng rng(10);
    graph_out = oracle.mc_outputs(Tensor::randn({5, 12, 1}, rng));
  }
  InferenceSession session(model, opts);
  ASSERT_EQ(session.chunk_rows(), 2);
  Rng rng(10);
  Tensor x = Tensor::randn({5, 12, 1}, rng);
  // 5 rows → chunks [2,2,1] at offsets 0,2,4: two plan keys for the
  // 2-row shape at different offsets plus the 1-row tail.
  expect_bit_equal(graph_out, session.mc_outputs(x), "chunked");
  expect_bit_equal(graph_out, session.mc_outputs(x), "chunked warm");
  EXPECT_TRUE(session.plan_info({2, 12, 1}, 0).compiled);
  EXPECT_TRUE(session.plan_info({2, 12, 1}, 2).compiled);
  EXPECT_TRUE(session.plan_info({1, 12, 1}, 4).compiled);
}

// ---- artifact backends -----------------------------------------------------
// The same artifact opened with compile on vs off must serve bit-exactly
// on every execution substrate.

const std::string& backend_artifact() {
  static const std::string path = [] {
    models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 4},
                               proposed());
    model.set_training(false);
    model.deploy();
    std::string p = temp_path("plan_backends.rpla");
    deploy::save_artifact(model, p,
                          options_for(TaskKind::kClassification, 4));
    return p;
  }();
  return path;
}

void check_backend(const DeployOptions& dopts, const char* tag) {
  Rng rng(11);
  Tensor x = Tensor::randn({2, 3, 16, 16}, rng);

  DeployOptions graph = dopts;
  graph.session = options_for(TaskKind::kClassification, 4);
  graph.session->compile = false;
  Tensor graph_stacked;
  Classification graph_pred;
  {
    auto oracle = InferenceSession::open(backend_artifact(), graph);
    graph_stacked = oracle->mc_outputs(x);
    graph_pred = oracle->classify(x);
  }

  DeployOptions compiled = dopts;
  compiled.session = options_for(TaskKind::kClassification, 4);
  compiled.session->compile = true;
  auto session = InferenceSession::open(backend_artifact(), compiled);
  PlanInfo info = session->precompile(x.shape());
  ASSERT_TRUE(info.compiled) << tag << ": " << info.fallback_reason;
  expect_bit_equal(graph_stacked, session->mc_outputs(x), tag);

  Prediction into;
  session->predict_into(x, into);
  expect_prediction_bit_equal(Prediction(graph_pred), into, tag);
}

TEST(PlanBackend, Fp32) {
  check_backend({.backend = Backend::kFp32}, "fp32");
}

TEST(PlanBackend, QuantSim) {
  check_backend({.backend = Backend::kQuantSim}, "quantsim");
}

TEST(PlanBackend, Crossbar) {
  DeployOptions dopts;
  dopts.backend = Backend::kCrossbar;
  dopts.crossbar.device.sigma_programming = 0.02;
  check_backend(dopts, "crossbar");
}

TEST(PlanBackend, DeployCompileWrapperWarmsTheCache) {
  auto session = InferenceSession::open(backend_artifact());
  PlanInfo info = deploy::compile(*session, {1, 3, 16, 16});
  ASSERT_TRUE(info.compiled) << info.fallback_reason;
  EXPECT_TRUE(session->plan_info({1, 3, 16, 16}).compiled);
}

TEST(PlanBackend, LstmGatePlanesMatchGraphAcrossShapes) {
  // The fused gate step lays each gate out as one plane over all rows and
  // runs σ/tanh over it in one call, so rows·hidden decides where the
  // vector kernels' masked tails fall: odd and lane-multiple hidden sizes,
  // every row count 1..9 (the 1/T-row uniform first cell included), on
  // fp32 and the int8 substrate. Hidden 1 uses SpinDrop: the proposed
  // variant's group norm needs more than one feature.
  for (const int64_t hidden : {1, 3, 8, 12, 32}) {
    models::LstmForecaster model(
        {.hidden = hidden, .window = 6},
        {.variant = hidden == 1 ? models::Variant::kSpinDrop
                                : models::Variant::kProposed});
    model.set_training(false);
    model.deploy();
    const std::string path = temp_path("plan_lstm_planes.rpla");
    deploy::save_artifact(model, path, options_for(TaskKind::kRegression, 4));
    for (const Backend backend : {Backend::kFp32, Backend::kQuantInt8}) {
      DeployOptions graph{.backend = backend};
      graph.session = options_for(TaskKind::kRegression, 4);
      graph.session->compile = false;
      DeployOptions compiled = graph;
      compiled.session->compile = true;
      auto oracle = InferenceSession::open(path, graph);
      for (int64_t rows = 1; rows <= 9; ++rows) {
        // One session per shape: nine shapes would overflow its plan cache.
        auto session = InferenceSession::open(path, compiled);
        const std::string tag = std::string(deploy::backend_name(backend)) +
                                " hidden=" + std::to_string(hidden) +
                                " rows=" + std::to_string(rows);
        Rng rng(static_cast<uint64_t>(100 * hidden + rows));
        Tensor x = Tensor::randn({rows, 6, 1}, rng);
        const Tensor want = oracle->mc_outputs(x);
        expect_bit_equal(want, session->mc_outputs(x), tag.c_str());
        const PlanInfo info = session->plan_info(x.shape());
        ASSERT_TRUE(info.compiled) << tag << ": " << info.fallback_reason;
        expect_bit_equal(want, session->mc_outputs(x), tag.c_str());
      }
    }
    std::filesystem::remove(path);
  }
}

// ---- concurrency -----------------------------------------------------------

TEST(Plan, EightThreadHammerStaysDeterministic) {
  models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 4},
                             proposed());
  model.set_training(false);
  model.deploy();
  InferenceSession session(model, options_for(TaskKind::kClassification, 4));
  Rng rng(12);
  Tensor x = Tensor::randn({2, 3, 16, 16}, rng);
  // Reference from the cold session: the first calls race to compile, the
  // losers serve from the graph — every result must still be identical.
  const Classification ref = session.classify(x);

  constexpr int kThreads = 8;
  constexpr int kIters = 20;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      Prediction into;
      for (int i = 0; i < kIters; ++i) {
        Classification c;
        if (i % 2 == 0) {
          c = session.classify(x);
        } else {
          session.predict_into(x, into);
          c = std::get<Classification>(into);
        }
        if (c.mean_probs.shape() != ref.mean_probs.shape() ||
            std::memcmp(c.mean_probs.data(), ref.mean_probs.data(),
                        sizeof(float) *
                            static_cast<size_t>(ref.mean_probs.numel())) !=
                0 ||
            c.predictions != ref.predictions) {
          ++failures[tid];
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int tid = 0; tid < kThreads; ++tid)
    EXPECT_EQ(failures[tid], 0) << "thread " << tid;
  EXPECT_TRUE(session.plan_info({2, 3, 16, 16}).compiled);
}

}  // namespace
}  // namespace ripple
