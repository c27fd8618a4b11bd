// One serving forward: predict(x), predict_into(x) — twice, reusing the
// same result storage — predict_many({x}) and the typed entry point serve
// the same bits for every task kind (ResNet classification, LSTM
// regression, UNet segmentation), on the fp32, quantsim and int8
// substrates, with compiled plans on and off. With compile on, the first
// predict compiles the plan and the later calls aggregate straight from its
// arena, so the check also pins plan-served ≡ graph-aggregated results.
// Registered twice in CMakeLists.txt, the second time as
// serving_paths_test_threads1 with RIPPLE_THREADS=1: the equivalence must
// hold at any pool width.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <variant>
#include <vector>

#include "deploy/deploy.h"
#include "models/lstm_forecaster.h"
#include "models/resnet.h"
#include "models/unet.h"
#include "serve/session.h"
#include "tensor/random.h"

namespace ripple {
namespace {

using deploy::Backend;
using serve::Classification;
using serve::InferenceSession;
using serve::Prediction;
using serve::Regression;
using serve::Segmentation;
using serve::TaskKind;

void expect_bit_equal(const Tensor& a, const Tensor& b,
                      const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                           sizeof(float) * static_cast<size_t>(a.numel())))
      << what;
}

void expect_prediction_bit_equal(const Prediction& want, const Prediction& got,
                                 const std::string& what) {
  ASSERT_EQ(want.index(), got.index()) << what;
  if (const auto* a = std::get_if<Classification>(&want)) {
    const auto& b = std::get<Classification>(got);
    expect_bit_equal(a->mean_probs, b.mean_probs, what + " mean_probs");
    expect_bit_equal(a->variance, b.variance, what + " variance");
    expect_bit_equal(a->entropy, b.entropy, what + " entropy");
    EXPECT_EQ(a->predictions, b.predictions) << what;
    EXPECT_EQ(a->samples, b.samples) << what;
  } else if (const auto* a = std::get_if<Regression>(&want)) {
    const auto& b = std::get<Regression>(got);
    expect_bit_equal(a->mean, b.mean, what + " mean");
    expect_bit_equal(a->stddev, b.stddev, what + " stddev");
    EXPECT_EQ(a->samples, b.samples) << what;
  } else {
    const auto& sa = std::get<Segmentation>(want);
    const auto& sb = std::get<Segmentation>(got);
    expect_bit_equal(sa.mean_probs, sb.mean_probs, what + " mean_probs");
    EXPECT_EQ(sa.samples, sb.samples) << what;
  }
}

/// The typed entry point of the session's task, wrapped back as Prediction.
Prediction typed(const InferenceSession& session, const Tensor& x) {
  switch (session.options().task) {
    case TaskKind::kClassification:
      return session.classify(x);
    case TaskKind::kRegression:
      return session.regress(x);
    case TaskKind::kSegmentation:
      return session.segment(x);
  }
  return Prediction{};
}

/// Saves `model` (deployed, eval mode) as an artifact serving `task` with
/// T = 4, then checks every serving entry point on each substrate × compile.
void check_serving_paths(models::TaskModel& model, TaskKind task,
                         const Tensor& x, const char* name) {
  model.set_training(false);
  model.deploy();
  // The pid keeps the two ctest registrations, which may run
  // concurrently, off each other's artifact file.
  const std::string path = ::testing::TempDir() + "serving_paths_" + name +
                           "_" + std::to_string(::getpid()) + ".rpla";
  serve::SessionOptions base;
  base.task = task;
  base.mc_samples = 4;
  base.seed = 61;
  deploy::save_artifact(model, path, base);

  for (const Backend backend :
       {Backend::kFp32, Backend::kQuantSim, Backend::kQuantInt8}) {
    for (const bool compile : {false, true}) {
      const std::string tag = std::string(name) + " " +
                              deploy::backend_name(backend) +
                              (compile ? " compiled" : " graph");
      deploy::DeployOptions dopts;
      dopts.backend = backend;
      dopts.session = base;
      dopts.session->compile = compile;
      const auto session = InferenceSession::open(path, dopts);

      const Prediction want = session->predict(x);
      ASSERT_EQ(want.index(), static_cast<size_t>(task)) << tag;
      if (compile) {
        ASSERT_TRUE(session->plan_info(x.shape()).compiled) << tag;
      }
      Prediction into;
      session->predict_into(x, into);
      expect_prediction_bit_equal(want, into, tag + " predict_into");
      session->predict_into(x, into);
      expect_prediction_bit_equal(want, into, tag + " predict_into reused");
      const std::vector<Prediction> many = session->predict_many({x});
      ASSERT_EQ(many.size(), 1u) << tag;
      expect_prediction_bit_equal(want, many.front(), tag + " predict_many");
      expect_prediction_bit_equal(want, typed(*session, x), tag + " typed");
      expect_prediction_bit_equal(want, session->predict(x),
                                  tag + " predict again");
    }
  }
  std::filesystem::remove(path);
}

TEST(ServingPaths, ResNetClassification) {
  models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 4},
                             {.variant = models::Variant::kProposed});
  Rng rng(71);
  check_serving_paths(model, TaskKind::kClassification,
                      Tensor::randn({3, 3, 16, 16}, rng), "resnet");
}

TEST(ServingPaths, LstmRegression) {
  models::LstmForecaster model({.hidden = 8, .window = 12},
                               {.variant = models::Variant::kProposed});
  Rng rng(72);
  check_serving_paths(model, TaskKind::kRegression,
                      Tensor::randn({4, 12, 1}, rng), "lstm");
}

TEST(ServingPaths, UNetSegmentation) {
  models::UNet model({.base_channels = 4, .activation_bits = 4},
                     {.variant = models::Variant::kProposed});
  Rng rng(73);
  check_serving_paths(model, TaskKind::kSegmentation,
                      Tensor::randn({2, 1, 32, 32}, rng), "unet");
}

}  // namespace
}  // namespace ripple
