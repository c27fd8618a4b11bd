// serve::InferenceSession — the thread-safe, uncertainty-aware serving API:
// typed results for all four task types, batched-vs-serial policy parity,
// micro-batching, and a multi-threaded hammer that checks concurrent
// predicts are exact and deterministic.
#include "serve/session.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "core/inverted_norm.h"
#include "fault/injector.h"
#include "models/lstm_forecaster.h"
#include "models/m5.h"
#include "models/resnet.h"
#include "models/unet.h"
#include "serve/metrics.h"

namespace ripple {
namespace {

using serve::Classification;
using serve::ExecutionPolicy;
using serve::InferenceSession;
using serve::Regression;
using serve::Segmentation;
using serve::SessionOptions;
using serve::TaskKind;

SessionOptions options_for(TaskKind task, int samples, uint64_t seed,
                           ExecutionPolicy policy = ExecutionPolicy::kBatched) {
  SessionOptions opts;
  opts.task = task;
  opts.mc_samples = samples;
  opts.seed = seed;
  opts.policy = policy;
  return opts;
}

models::BinaryResNet::Topology small_resnet() {
  return {.in_channels = 3, .classes = 10, .width = 4};
}

models::VariantConfig variant(models::Variant v = models::Variant::kProposed) {
  return {.variant = v};
}

void expect_tensors_near(const Tensor& a, const Tensor& b, float tol,
                         const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (int64_t i = 0; i < a.numel(); ++i)
    ASSERT_NEAR(a.data()[i], b.data()[i], tol) << what << " at " << i;
}

// ---- typed serving of the four task types ---------------------------------

TEST(Serve, ResNetClassificationResult) {
  models::BinaryResNet model(small_resnet(), variant());
  InferenceSession session(model,
                           options_for(TaskKind::kClassification, 6, 11));
  Rng rng(1);
  Tensor x = Tensor::randn({3, 3, 16, 16}, rng);
  const Classification mc = session.classify(x);
  EXPECT_EQ(mc.samples, 6);
  ASSERT_EQ(mc.mean_probs.shape(), Shape({3, 10}));
  ASSERT_EQ(mc.variance.shape(), Shape({3, 10}));
  ASSERT_EQ(mc.entropy.shape(), Shape({3}));
  ASSERT_EQ(mc.predictions.size(), 3u);
  for (int64_t i = 0; i < 3; ++i) {
    double row_sum = 0.0;
    for (int64_t c = 0; c < 10; ++c) {
      EXPECT_GE(mc.mean_probs.at({i, c}), 0.0f);
      EXPECT_GE(mc.variance.at({i, c}), 0.0f);
      row_sum += mc.mean_probs.at({i, c});
    }
    EXPECT_NEAR(row_sum, 1.0, 1e-4);
    // Entropy of a 10-class distribution lies in [0, ln 10].
    EXPECT_GE(mc.entropy.data()[i], 0.0f);
    EXPECT_LE(mc.entropy.data()[i], std::log(10.0f) + 1e-4f);
  }
  // predict() serves the same task through the variant entry point.
  const serve::Prediction p = session.predict(x);
  ASSERT_TRUE(std::holds_alternative<Classification>(p));
  expect_tensors_near(std::get<Classification>(p).mean_probs, mc.mean_probs,
                      0.0f, "predict == classify");
}

TEST(Serve, M5ClassificationServes) {
  models::M5 model({.classes = 8, .width = 4, .input_length = 256},
                   {.variant = models::Variant::kProposed});
  InferenceSession session(model,
                           options_for(TaskKind::kClassification, 4, 21));
  Rng rng(2);
  Tensor x = Tensor::randn({2, 1, 256}, rng);
  const Classification mc = session.classify(x);
  ASSERT_EQ(mc.mean_probs.shape(), Shape({2, 8}));
  EXPECT_EQ(session.requests_served(), 1u);
  EXPECT_EQ(session.rows_served(), 2u);
}

TEST(Serve, LstmRegressionResult) {
  models::LstmForecaster model({.hidden = 8, .window = 12},
                               {.variant = models::Variant::kProposed});
  InferenceSession session(model, options_for(TaskKind::kRegression, 5, 31));
  Rng rng(3);
  Tensor x = Tensor::randn({4, 12, 1}, rng);
  const Regression mc = session.regress(x);
  EXPECT_EQ(mc.samples, 5);
  ASSERT_EQ(mc.mean.shape(), Shape({4, 1}));
  ASSERT_EQ(mc.stddev.shape(), Shape({4, 1}));
  for (int64_t i = 0; i < mc.stddev.numel(); ++i)
    EXPECT_GE(mc.stddev.data()[i], 0.0f);
}

TEST(Serve, UNetSegmentationResult) {
  models::UNet model({.base_channels = 4, .activation_bits = 4},
                     {.variant = models::Variant::kProposed});
  InferenceSession session(model,
                           options_for(TaskKind::kSegmentation, 3, 41));
  Rng rng(4);
  Tensor x = Tensor::randn({2, 1, 16, 16}, rng);
  const Segmentation mc = session.segment(x);
  EXPECT_EQ(mc.samples, 3);
  ASSERT_EQ(mc.mean_probs.shape(), Shape({2, 1, 16, 16}));
  for (int64_t i = 0; i < mc.mean_probs.numel(); ++i) {
    EXPECT_GE(mc.mean_probs.data()[i], 0.0f);
    EXPECT_LE(mc.mean_probs.data()[i], 1.0f);
  }
}

TEST(Serve, TypedEntryPointChecksTaskKind) {
  models::BinaryResNet model(small_resnet(), variant());
  InferenceSession session(model,
                           options_for(TaskKind::kClassification, 2, 51));
  Rng rng(5);
  Tensor x = Tensor::randn({1, 3, 16, 16}, rng);
  EXPECT_THROW(session.regress(x), CheckError);
  EXPECT_THROW(session.segment(x), CheckError);
}

// ---- policy parity ---------------------------------------------------------

TEST(Serve, BatchedPolicyMatchesSerialOracle) {
  const uint64_t seed = 1234;
  const int t = 5;
  Rng rng(6);
  Tensor x = Tensor::randn({2, 3, 16, 16}, rng);
  models::BinaryResNet model(small_resnet(), variant());
  Tensor batched;
  {
    InferenceSession session(
        model, options_for(TaskKind::kClassification, t, seed,
                           ExecutionPolicy::kBatched));
    batched = session.mc_outputs(x);
  }
  Tensor serial;
  {
    InferenceSession session(
        model, options_for(TaskKind::kClassification, t, seed,
                           ExecutionPolicy::kSerial));
    serial = session.mc_outputs(x);
  }
  ASSERT_EQ(batched.dim(0), t * x.dim(0));
  expect_tensors_near(batched, serial, 1e-4f, "batched vs serial policy");
}

TEST(Serve, SameSeedSameResultAcrossSessions) {
  Rng rng(8);
  Tensor x = Tensor::randn({2, 3, 16, 16}, rng);
  models::BinaryResNet model(small_resnet(), variant());
  Tensor first;
  {
    InferenceSession session(model,
                             options_for(TaskKind::kClassification, 3, 99));
    first = session.classify(x).mean_probs;
  }
  {
    InferenceSession session(model,
                             options_for(TaskKind::kClassification, 3, 99));
    expect_tensors_near(session.classify(x).mean_probs, first, 0.0f,
                        "same seed across sessions");
  }
}

TEST(Serve, ChunkedRequestMatchesUnchunked) {
  // A request larger than max_batch splits into chunks; the per-replica
  // affine masks are row-independent, so the reassembled stacked output
  // equals the one-shot pass.
  const uint64_t seed = 31337;
  const int t = 3;
  Rng rng(9);
  Tensor x = Tensor::randn({6, 3, 16, 16}, rng);
  models::BinaryResNet model(small_resnet(), variant());
  Tensor whole;
  {
    SessionOptions opts = options_for(TaskKind::kClassification, t, seed);
    opts.max_batch = t * x.dim(0);
    InferenceSession session(model, opts);
    EXPECT_EQ(session.chunk_rows(), x.dim(0));
    whole = session.mc_outputs(x);
  }
  {
    SessionOptions opts = options_for(TaskKind::kClassification, t, seed);
    opts.max_batch = t * 2;  // 2 input rows per forward
    InferenceSession session(model, opts);
    EXPECT_EQ(session.chunk_rows(), 2);
    expect_tensors_near(session.mc_outputs(x), whole, 1e-4f,
                        "chunked vs unchunked");
  }
}

TEST(Serve, ChunkedDropoutMasksDoNotRepeatAcrossChunks) {
  // MC-Dropout masks are row-dependent; each chunk folds its starting row
  // into the sub-streams, so feeding identical rows through different
  // chunks must yield different stochastic outputs (repeated masks would
  // make them bit-equal and silently correlate the MC estimate).
  models::BinaryResNet model(small_resnet(),
                             variant(models::Variant::kSpinDrop));
  const int t = 2;
  SessionOptions opts = options_for(TaskKind::kClassification, t, 808);
  opts.max_batch = t * 2;  // chunks of 2 input rows
  InferenceSession session(model, opts);
  Rng rng(21);
  Tensor row = Tensor::randn({1, 3, 16, 16}, rng);
  Tensor x = Tensor::empty({4, 3, 16, 16});
  for (int64_t i = 0; i < 4; ++i)
    std::memcpy(x.data() + i * row.numel(), row.data(),
                sizeof(float) * static_cast<size_t>(row.numel()));
  Tensor stacked = session.mc_outputs(x);  // [t·4, 10]
  // Same replica, same input row, different chunk ⇒ different masks.
  bool any_difference = false;
  for (int64_t c = 0; c < 10; ++c)
    if (stacked.at({0, c}) != stacked.at({2, c})) any_difference = true;
  EXPECT_TRUE(any_difference)
      << "chunk 1 reused chunk 0's dropout masks for identical inputs";
}

TEST(Serve, ConventionalVariantClampsToOneSample) {
  models::BinaryResNet model(small_resnet(),
                             variant(models::Variant::kConventional));
  InferenceSession session(model,
                           options_for(TaskKind::kClassification, 8, 1));
  EXPECT_EQ(session.samples(), 1);
  Rng rng(10);
  Tensor x = Tensor::randn({2, 3, 16, 16}, rng);
  const Classification mc = session.classify(x);
  ASSERT_EQ(mc.mean_probs.shape(), Shape({2, 10}));
  // Deterministic model: zero across-sample variance.
  for (int64_t i = 0; i < mc.variance.numel(); ++i)
    EXPECT_FLOAT_EQ(mc.variance.data()[i], 0.0f);
}

// ---- micro-batching -------------------------------------------------------

TEST(Serve, PredictManyMatchesIndividualPredicts) {
  models::BinaryResNet model(small_resnet(), variant());
  SessionOptions opts = options_for(TaskKind::kClassification, 4, 4242);
  opts.max_batch = 64;
  InferenceSession session(model, opts);
  Rng rng(11);
  std::vector<Tensor> requests = {Tensor::randn({1, 3, 16, 16}, rng),
                                  Tensor::randn({3, 3, 16, 16}, rng),
                                  Tensor::randn({2, 3, 16, 16}, rng)};
  const std::vector<serve::Prediction> many = session.predict_many(requests);
  ASSERT_EQ(many.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const auto& got = std::get<Classification>(many[i]);
    const Classification want = session.classify(requests[i]);
    ASSERT_EQ(got.predictions.size(),
              static_cast<size_t>(requests[i].dim(0)));
    expect_tensors_near(got.mean_probs, want.mean_probs, 1e-5f,
                        "predict_many mean");
    expect_tensors_near(got.variance, want.variance, 1e-5f,
                        "predict_many variance");
    expect_tensors_near(got.entropy, want.entropy, 1e-5f,
                        "predict_many entropy");
  }
  EXPECT_EQ(session.requests_served(),
            requests.size() + requests.size());  // many + individual calls
}

TEST(Serve, PredictManyRejectsMismatchedShapes) {
  models::BinaryResNet model(small_resnet(), variant());
  InferenceSession session(model,
                           options_for(TaskKind::kClassification, 2, 5));
  Rng rng(12);
  std::vector<Tensor> requests = {Tensor::randn({1, 3, 16, 16}, rng),
                                  Tensor::randn({1, 3, 8, 8}, rng)};
  EXPECT_THROW(session.predict_many(requests), CheckError);
}

// ---- concurrency ----------------------------------------------------------

TEST(Serve, ConcurrentPredictsMatchSerialOracleExactly) {
  // One session, many threads, distinct inputs: every thread must get
  // bit-identical results to the single-threaded oracle, every iteration —
  // per-request stream contexts mean no cross-request state exists.
  models::BinaryResNet model(small_resnet(), variant());
  SessionOptions opts = options_for(TaskKind::kClassification, 4, 2024);
  InferenceSession session(model, opts);

  const int kThreads = 8;
  const int kIters = 4;
  std::vector<Tensor> inputs;
  std::vector<Classification> oracle;
  Rng rng(13);
  for (int i = 0; i < kThreads; ++i) {
    inputs.push_back(Tensor::randn({2, 3, 16, 16}, rng));
    oracle.push_back(session.classify(inputs.back()));
  }

  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int ti = 0; ti < kThreads; ++ti) {
    threads.emplace_back([&, ti] {
      for (int it = 0; it < kIters; ++it) {
        const Classification got = session.classify(inputs[ti]);
        if (got.predictions != oracle[ti].predictions) ++mismatches[ti];
        for (int64_t j = 0; j < got.mean_probs.numel(); ++j)
          if (got.mean_probs.data()[j] != oracle[ti].mean_probs.data()[j]) {
            ++mismatches[ti];
            break;
          }
        for (int64_t j = 0; j < got.variance.numel(); ++j)
          if (got.variance.data()[j] != oracle[ti].variance.data()[j]) {
            ++mismatches[ti];
            break;
          }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int ti = 0; ti < kThreads; ++ti)
    EXPECT_EQ(mismatches[ti], 0) << "thread " << ti;
  EXPECT_EQ(session.requests_served(),
            static_cast<uint64_t>(kThreads + kThreads * kIters));
}

TEST(Serve, ConcurrentMixedBatchSizes) {
  // Threads with different batch sizes share the session: replica counts
  // live in the per-request context, so they cannot interfere.
  models::LstmForecaster model({.hidden = 8, .window = 12},
                               {.variant = models::Variant::kProposed});
  InferenceSession session(model, options_for(TaskKind::kRegression, 3, 606));
  Rng rng(14);
  std::vector<Tensor> inputs = {Tensor::randn({1, 12, 1}, rng),
                                Tensor::randn({4, 12, 1}, rng),
                                Tensor::randn({2, 12, 1}, rng),
                                Tensor::randn({3, 12, 1}, rng)};
  std::vector<Regression> oracle;
  for (const Tensor& x : inputs) oracle.push_back(session.regress(x));

  std::vector<int> mismatches(inputs.size(), 0);
  std::vector<std::thread> threads;
  for (size_t ti = 0; ti < inputs.size(); ++ti) {
    threads.emplace_back([&, ti] {
      for (int it = 0; it < 3; ++it) {
        const Regression got = session.regress(inputs[ti]);
        for (int64_t j = 0; j < got.mean.numel(); ++j)
          if (got.mean.data()[j] != oracle[ti].mean.data()[j]) {
            ++mismatches[ti];
            break;
          }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (size_t ti = 0; ti < inputs.size(); ++ti)
    EXPECT_EQ(mismatches[ti], 0) << "thread " << ti;
}

TEST(Serve, ConcurrentNoisyPredictsMatchSerialExecution) {
  // Regression test for the global-RNG serialization fix: the session
  // binds the model's ActivationNoiseConfig to a mask-stream slot, so
  // noisy draws derive from the pinned per-request streams. Two threads
  // hammering predict must then reproduce the serial execution bit-exactly
  // — under the old global-RNG draws the results were sampling-order
  // dependent (and the passes had to serialize on a mutex).
  models::BinaryResNet model(small_resnet(), variant());
  model.noise()->enabled = true;
  model.noise()->additive_std = 0.2f;
  model.noise()->multiplicative_std = 0.1f;
  {
    InferenceSession session(model,
                             options_for(TaskKind::kClassification, 4, 515));
    Rng rng(22);
    std::vector<Tensor> inputs = {Tensor::randn({2, 3, 16, 16}, rng),
                                  Tensor::randn({2, 3, 16, 16}, rng)};
    std::vector<Classification> oracle;
    for (const Tensor& x : inputs) oracle.push_back(session.classify(x));
    // Serial replay first: noise is deterministic per (seed, input).
    for (size_t i = 0; i < inputs.size(); ++i)
      expect_tensors_near(session.classify(inputs[i]).mean_probs,
                          oracle[i].mean_probs, 0.0f,
                          "noisy predict is deterministic");

    std::vector<int> mismatches(inputs.size(), 0);
    std::vector<std::thread> threads;
    for (size_t ti = 0; ti < inputs.size(); ++ti) {
      threads.emplace_back([&, ti] {
        for (int it = 0; it < 6; ++it) {
          const Classification got = session.classify(inputs[ti]);
          for (int64_t j = 0; j < got.mean_probs.numel(); ++j)
            if (got.mean_probs.data()[j] !=
                oracle[ti].mean_probs.data()[j]) {
              ++mismatches[ti];
              break;
            }
        }
      });
    }
    for (auto& t : threads) t.join();
    for (size_t ti = 0; ti < inputs.size(); ++ti)
      EXPECT_EQ(mismatches[ti], 0) << "thread " << ti;
  }
  model.noise()->enabled = false;
  model.noise()->additive_std = 0.0f;
  model.noise()->multiplicative_std = 0.0f;
}

TEST(Serve, NoisyBatchedPolicyMatchesSerialPolicy) {
  // Stream-bound noise follows the dropout layers' replica sub-stream
  // contract, so the batched MC fold and the serial reference sample the
  // same noise per replica.
  models::BinaryResNet model(small_resnet(), variant());
  model.noise()->enabled = true;
  model.noise()->additive_std = 0.3f;
  Rng rng(23);
  Tensor x = Tensor::randn({2, 3, 16, 16}, rng);
  Tensor batched;
  {
    InferenceSession session(
        model, options_for(TaskKind::kClassification, 5, 616,
                           ExecutionPolicy::kBatched));
    batched = session.mc_outputs(x);
  }
  Tensor serial;
  {
    InferenceSession session(
        model, options_for(TaskKind::kClassification, 5, 616,
                           ExecutionPolicy::kSerial));
    serial = session.mc_outputs(x);
  }
  expect_tensors_near(batched, serial, 1e-4f, "noisy batched vs serial");
  model.noise()->enabled = false;
  model.noise()->additive_std = 0.0f;
}

TEST(Serve, ActivationFaultBatchedPolicyBitEqualsSerialPolicy) {
  // An on-activation noise FaultSpec (the fault_sweep σ = 0.5 instance):
  // the batched fold fills the T per-replica noise blocks in parallel, each
  // from its own sub-stream, so it reproduces the serial policy's replica
  // passes bit for bit. The shapes make every block big enough to be
  // filled in parallel.
  models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 8},
                             variant());
  model.set_training(false);
  model.deploy();
  fault::FaultInjector injector(model.fault_targets(), model.noise());
  Rng fault_rng(41);
  injector.apply(fault::FaultSpec::additive(0.5f, /*on_activations=*/true),
                 fault_rng);
  Rng rng(24);
  Tensor x = Tensor::randn({8, 3, 16, 16}, rng);
  Tensor batched;
  {
    InferenceSession session(
        model, options_for(TaskKind::kClassification, 5, 617,
                           ExecutionPolicy::kBatched));
    batched = session.mc_outputs(x);
    // The compiled plan serves the same bits as the first (compiling) call.
    expect_tensors_near(session.mc_outputs(x), batched, 0.0f,
                        "noisy batched, second call");
  }
  Tensor serial;
  {
    InferenceSession session(
        model, options_for(TaskKind::kClassification, 5, 617,
                           ExecutionPolicy::kSerial));
    serial = session.mc_outputs(x);
  }
  injector.restore();
  ASSERT_EQ(batched.shape(), serial.shape());
  EXPECT_EQ(0, std::memcmp(batched.data(), serial.data(),
                           sizeof(float) *
                               static_cast<size_t>(batched.numel())));
}

// ---- lifecycle ------------------------------------------------------------

TEST(Serve, SessionRestoresModelStateOnDestruction) {
  models::BinaryResNet model(small_resnet(), variant());
  {
    InferenceSession session(model,
                             options_for(TaskKind::kClassification, 4, 3));
    Rng rng(15);
    (void)session.classify(Tensor::randn({1, 3, 16, 16}, rng));
    for (auto* l : model.inverted_norm_layers()) {
      EXPECT_TRUE(l->mc_mode());
      EXPECT_GE(l->stream_slot(), 0);
    }
  }
  for (auto* l : model.inverted_norm_layers()) {
    EXPECT_FALSE(l->mc_mode());
    EXPECT_EQ(l->stream_slot(), -1);
    EXPECT_EQ(l->mc_replicas(), 1);
  }
  Rng rng(16);
  Tensor y = model.predict(Tensor::randn({1, 3, 16, 16}, rng));
  EXPECT_EQ(y.shape(), Shape({1, 10}));
}

TEST(Serve, PackCacheServesFrozenPanelsUntilCleared) {
  // The frozen cache is keyed by pointer: in-place mutation of A keeps
  // serving the recorded panels (the stale hazard invalidate_packed_weights
  // exists for); clear() re-opens recording and picks up the new values.
  const int64_t m = 8, k = 8, n = 8;
  Rng rng(20);
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  PackedACache cache;
  auto run = [&] {
    Tensor c = Tensor::zeros({m, n});
    PackCacheScope scope(&cache);
    PackedGemmA local;
    std::vector<float> scratch(
        static_cast<size_t>(gemm_nn_prepacked_scratch(n, k)));
    gemm_nn_prepacked(pack_gemm_a_cached(m, k, a.data(), local), n, b.data(),
                      n, c.data(), n, {}, scratch.data());
    return c;
  };
  const Tensor fresh = run();  // records
  cache.freeze();
  EXPECT_EQ(cache.size(), 1u);
  for (int64_t i = 0; i < a.numel(); ++i) a.data()[i] = -a.data()[i];
  const Tensor stale = run();  // frozen cache still serves old panels
  expect_tensors_near(stale, fresh, 0.0f, "frozen cache ignores mutation");
  cache.clear();
  const Tensor rebuilt = run();  // re-records from the mutated values
  for (int64_t i = 0; i < rebuilt.numel(); ++i)
    ASSERT_FLOAT_EQ(rebuilt.data()[i], -fresh.data()[i]) << "at " << i;
}

TEST(Serve, InvalidatePackedWeightsTracksMutation) {
  // Deployed sessions pack conv weights once; in-place weight mutation
  // (what fault injection does) must be followed by
  // invalidate_packed_weights() to serve the new values.
  models::BinaryResNet model(small_resnet(),
                             variant(models::Variant::kConventional));
  model.deploy();
  InferenceSession session(model,
                           options_for(TaskKind::kClassification, 1, 17));
  Rng rng(17);
  Tensor x = Tensor::randn({2, 3, 16, 16}, rng);
  const Classification before = session.classify(x);

  // Mutate every conv weight in place (keeps data pointers — the cache key).
  for (auto* p : model.parameters(autograd::ParamKind::kWeight)) {
    Tensor& w = p->var.value();
    for (int64_t i = 0; i < w.numel(); ++i) w.data()[i] = -w.data()[i];
  }
  session.invalidate_packed_weights();
  const Classification after = session.classify(x);
  bool changed = false;
  for (int64_t i = 0; i < before.mean_probs.numel(); ++i)
    if (before.mean_probs.data()[i] != after.mean_probs.data()[i])
      changed = true;
  EXPECT_TRUE(changed) << "stale packed weights served after mutation";
}

// ---- dataset metrics ------------------------------------------------------

TEST(Serve, DatasetMetricsRunThroughSession) {
  models::BinaryResNet model(small_resnet(), variant());
  InferenceSession session(model,
                           options_for(TaskKind::kClassification, 2, 19));
  data::ClassificationData d;
  Rng rng(18);
  d.x = Tensor::randn({10, 3, 16, 16}, rng);
  d.y.assign(10, 0);
  const double acc = serve::accuracy(session, d);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

}  // namespace
}  // namespace ripple
