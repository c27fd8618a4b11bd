// serve::aggregate_into — the one Monte-Carlo reduction per task behind
// every serving entry point. Fixed stacked outputs must reduce to exactly
// the bits of the reference composition (ops::softmax_rows →
// fault::replica_moments → core::per_sample_entropy → ops::argmax_rows for
// classification, replica moments for regression, fault::replica_mean of
// the sigmoid for segmentation), reused result storage must stay put, and
// the estimator keeps its statistical properties: zero spread for a
// deterministic forward, normalized mean probabilities, positive spread
// for a stochastic one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/uncertainty.h"
#include "fault/mc_batch.h"
#include "serve/session.h"
#include "tensor/check.h"
#include "tensor/ops.h"
#include "tensor/random.h"

namespace ripple {
namespace {

using serve::Classification;
using serve::Prediction;
using serve::Regression;
using serve::Segmentation;
using serve::TaskKind;

void expect_bit_equal(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                           sizeof(float) * static_cast<size_t>(a.numel())))
      << what;
}

/// aggregate_into on fresh storage, unwrapped to the task's alternative A.
template <typename A>
A aggregate(TaskKind task, const Tensor& stacked, int samples) {
  Tensor scratch;
  Prediction out;
  serve::aggregate_into(task, stacked, samples, scratch, out);
  return std::get<A>(std::move(out));
}

/// [samples·n, c] logits: one randn block per replica, with extreme logits
/// and an exact tie in replica-uniform rows to exercise the softmax shift
/// and argmax tie-breaking.
Tensor stacked_logits(int samples, int64_t n, int64_t c, uint64_t seed) {
  Rng rng(seed);
  Tensor s = Tensor::randn({samples * n, c}, rng, 0.0f, 2.5f);
  for (int r = 0; r < samples; ++r) {
    float* row0 = s.data() + (r * n) * c;
    row0[0] = 80.0f;
    row0[c - 1] = -80.0f;
    float* row1 = s.data() + (r * n + 1) * c;
    std::fill(row1, row1 + c, 0.5f);
  }
  return s;
}

// ---- the composition oracle ----------------------------------------------

TEST(Aggregation, ClassificationBitEqualsReferenceComposition) {
  for (const int samples : {1, 4, 7}) {
    const int64_t n = 5;
    const int64_t c = 10;
    const Tensor stacked = stacked_logits(samples, n, c, 40 + samples);

    const fault::ReplicaMoments want =
        fault::replica_moments(ops::softmax_rows(stacked), samples);
    const std::vector<double> h = core::per_sample_entropy(want.mean);
    Tensor want_entropy({n});
    for (int64_t i = 0; i < n; ++i)
      want_entropy.data()[i] = static_cast<float>(h[static_cast<size_t>(i)]);

    const Classification cls =
        aggregate<Classification>(TaskKind::kClassification, stacked, samples);
    expect_bit_equal(cls.mean_probs, want.mean, "mean_probs");
    expect_bit_equal(cls.variance, want.variance, "variance");
    expect_bit_equal(cls.entropy, want_entropy, "entropy");
    EXPECT_EQ(cls.predictions, ops::argmax_rows(want.mean));
    EXPECT_EQ(cls.predictions[1], 0);  // tie → lowest index
    EXPECT_EQ(cls.samples, samples);
  }
}

TEST(Aggregation, RegressionBitEqualsReplicaMoments) {
  for (const Shape& row : {Shape{1}, Shape{2, 3}}) {
    const int samples = 6;
    const int64_t n = 4;
    Shape shape{samples * n};
    shape.insert(shape.end(), row.begin(), row.end());
    Rng rng(7);
    const Tensor stacked = Tensor::randn(shape, rng, 1.0f, 0.75f);

    const fault::ReplicaMoments want =
        fault::replica_moments(stacked, samples);
    const Tensor want_std = ops::map(
        want.variance, [](float v) { return v > 0.0f ? std::sqrt(v) : 0.0f; });

    const Regression reg =
        aggregate<Regression>(TaskKind::kRegression, stacked, samples);
    expect_bit_equal(reg.mean, want.mean, "mean");
    expect_bit_equal(reg.stddev, want_std, "stddev");
    EXPECT_EQ(reg.samples, samples);
  }
}

TEST(Aggregation, SegmentationBitEqualsReplicaMeanOfSigmoid) {
  const int samples = 3;
  Rng rng(8);
  const Tensor stacked =
      Tensor::randn({samples * 2, 1, 8, 8}, rng, 0.0f, 4.0f);
  const Tensor want = fault::replica_mean(
      ops::map(stacked, [](float v) { return 1.0f / (1.0f + std::exp(-v)); }),
      samples);
  const Segmentation seg =
      aggregate<Segmentation>(TaskKind::kSegmentation, stacked, samples);
  expect_bit_equal(seg.mean_probs, want, "mean_probs");
  EXPECT_EQ(seg.samples, samples);
}

TEST(Aggregation, ReusedStorageStaysPutAndAlternativesSwitch) {
  const int samples = 4;
  const Tensor logits = stacked_logits(samples, 3, 6, 9);
  const Classification want =
      aggregate<Classification>(TaskKind::kClassification, logits, samples);

  Tensor scratch;
  Prediction out;
  serve::aggregate_into(TaskKind::kClassification, logits, samples, scratch,
                        out);
  const auto& first = std::get<Classification>(out);
  const float* mean_storage = first.mean_probs.data();
  const float* scratch_storage = scratch.data();
  serve::aggregate_into(TaskKind::kClassification, logits, samples, scratch,
                        out);
  const auto& again = std::get<Classification>(out);
  EXPECT_EQ(again.mean_probs.data(), mean_storage);
  EXPECT_EQ(scratch.data(), scratch_storage);
  expect_bit_equal(again.mean_probs, want.mean_probs, "reused mean_probs");
  expect_bit_equal(again.entropy, want.entropy, "reused entropy");

  // A storage slot that held another task's result switches alternative.
  Rng rng(10);
  const Tensor values = Tensor::randn({samples * 3, 1}, rng);
  serve::aggregate_into(TaskKind::kRegression, values, samples, scratch, out);
  ASSERT_TRUE(std::holds_alternative<Regression>(out));
  expect_bit_equal(
      std::get<Regression>(out).mean,
      aggregate<Regression>(TaskKind::kRegression, values, samples).mean,
      "switched mean");
}

TEST(Aggregation, RejectsStacksThatAreNotWholeReplicaBlocks) {
  Tensor scratch;
  Prediction out;
  EXPECT_THROW(serve::aggregate_into(TaskKind::kClassification,
                                     Tensor({2, 3}), 0, scratch, out),
               CheckError);
  EXPECT_THROW(serve::aggregate_into(TaskKind::kRegression, Tensor({5, 1}), 2,
                                     scratch, out),
               CheckError);
  EXPECT_THROW(serve::aggregate_into(TaskKind::kClassification,
                                     Tensor({4, 2, 2}), 2, scratch, out),
               CheckError);
}

// ---- estimator properties -----------------------------------------------

TEST(Aggregation, DeterministicForwardGivesZeroVariance) {
  const int samples = 8;
  Tensor logits({samples * 4, 3});
  for (int64_t i = 0; i < logits.dim(0); ++i) logits.at({i, 1}) = 2.0f;
  const Classification cls =
      aggregate<Classification>(TaskKind::kClassification, logits, samples);
  EXPECT_EQ(cls.samples, samples);
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(cls.predictions[i], 1);
  for (float v : cls.variance.span()) EXPECT_NEAR(v, 0.0f, 1e-6f);
}

TEST(Aggregation, MeanProbsAreNormalized) {
  const int samples = 16;
  Rng rng(1);
  const Classification cls = aggregate<Classification>(
      TaskKind::kClassification, Tensor::randn({samples * 3, 5}, rng),
      samples);
  for (int64_t i = 0; i < 3; ++i) {
    float sum = 0.0f;
    for (int64_t c = 0; c < 5; ++c) sum += cls.mean_probs.at({i, c});
    EXPECT_NEAR(sum, 1.0f, 1e-4f);
  }
}

TEST(Aggregation, StochasticForwardGivesPositiveVariance) {
  const int samples = 32;
  Rng rng(2);
  const Classification cls = aggregate<Classification>(
      TaskKind::kClassification,
      Tensor::randn({samples * 2, 4}, rng, 0.0f, 3.0f), samples);
  float max_var = 0.0f;
  for (float v : cls.variance.span()) max_var = std::max(max_var, v);
  EXPECT_GT(max_var, 1e-3f);
}

TEST(Aggregation, AveragingSharpensNoisyVotes) {
  // Logits favour class 0 but with heavy noise; the MC mean recovers the
  // majority class more reliably than a single pass.
  const int samples = 32;
  Rng rng(3);
  int correct = 0;
  const int trials = 50;
  for (int t = 0; t < trials; ++t) {
    Tensor logits = Tensor::randn({samples, 2}, rng, 0.0f, 2.0f);
    for (int64_t i = 0; i < samples; ++i) logits.at({i, 0}) += 1.0f;
    const Classification cls =
        aggregate<Classification>(TaskKind::kClassification, logits, samples);
    if (cls.predictions[0] == 0) ++correct;
  }
  EXPECT_GT(correct, trials * 8 / 10);
}

TEST(Aggregation, RegressionMeanAndStddevOfAlternatingPasses) {
  // Passes alternate between 1 and 3 → mean 2, population std 1.
  const int samples = 100;
  Tensor values({samples * 2, 4, 1});
  const int64_t block = 2 * 4;
  for (int r = 0; r < samples; ++r)
    std::fill(values.data() + r * block, values.data() + (r + 1) * block,
              r % 2 == 0 ? 1.0f : 3.0f);
  const Regression reg =
      aggregate<Regression>(TaskKind::kRegression, values, samples);
  ASSERT_EQ(reg.mean.shape(), Shape({2, 4, 1}));
  EXPECT_NEAR(reg.mean.at({0, 0, 0}), 2.0f, 1e-4f);
  EXPECT_NEAR(reg.stddev.at({0, 0, 0}), 1.0f, 1e-4f);
}

TEST(Aggregation, SegmentationAveragesSigmoidProbabilities) {
  // Passes alternate between certain-foreground and certain-background.
  const int samples = 10;
  Tensor logits({samples, 1, 2, 2});
  for (int r = 0; r < samples; ++r)
    std::fill(logits.data() + r * 4, logits.data() + (r + 1) * 4,
              r % 2 == 0 ? 100.0f : -100.0f);
  const Segmentation seg =
      aggregate<Segmentation>(TaskKind::kSegmentation, logits, samples);
  for (float v : seg.mean_probs.span()) EXPECT_NEAR(v, 0.5f, 1e-5f);
}

}  // namespace
}  // namespace ripple
