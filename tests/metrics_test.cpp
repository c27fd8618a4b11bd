#include "core/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "models/resnet.h"
#include "serve/batcher.h"
#include "serve/metrics.h"
#include "serve/session.h"
#include "tensor/check.h"
#include "tensor/random.h"

namespace ripple::core {
namespace {

TEST(Accuracy, AllCorrect) {
  Tensor scores({2, 3}, {1, 5, 2, 9, 1, 0});
  EXPECT_DOUBLE_EQ(accuracy(scores, {1, 0}), 1.0);
}

TEST(Accuracy, Half) {
  Tensor scores({2, 2}, {1, 0, 0, 1});
  EXPECT_DOUBLE_EQ(accuracy(scores, {0, 0}), 0.5);
}

TEST(Accuracy, CountMismatchThrows) {
  Tensor scores({2, 2});
  EXPECT_THROW(accuracy(scores, {0}), CheckError);
}

TEST(MiouBinary, PerfectPrediction) {
  Tensor target({1, 1, 2, 2}, {1, 0, 0, 1});
  Tensor probs({1, 1, 2, 2}, {0.9f, 0.1f, 0.2f, 0.8f});
  EXPECT_DOUBLE_EQ(miou_binary(probs, target), 1.0);
}

TEST(MiouBinary, AllWrongIsZero) {
  Tensor target({1, 1, 1, 2}, {1, 0});
  Tensor probs({1, 1, 1, 2}, {0.0f, 1.0f});
  EXPECT_DOUBLE_EQ(miou_binary(probs, target), 0.0);
}

TEST(MiouBinary, KnownPartialOverlap) {
  // fg: pred {a}, truth {a, b} → IoU_fg = 1/2.
  // bg: pred {b, c, d}, truth {c, d} → IoU_bg = 2/3.
  Tensor target({1, 1, 2, 2}, {1, 1, 0, 0});
  Tensor probs({1, 1, 2, 2}, {0.9f, 0.1f, 0.1f, 0.1f});
  EXPECT_NEAR(miou_binary(probs, target), 0.5 * (0.5 + 2.0 / 3.0), 1e-9);
}

TEST(MiouBinary, EmptyForegroundHandled) {
  Tensor target = Tensor::zeros({1, 1, 2, 2});
  Tensor probs = Tensor::zeros({1, 1, 2, 2});
  // fg union empty → fg IoU defined as 1; bg perfect.
  EXPECT_DOUBLE_EQ(miou_binary(probs, target), 1.0);
}

TEST(MiouBinary, ThresholdRespected) {
  Tensor target({1, 1, 1, 2}, {1, 0});
  Tensor probs({1, 1, 1, 2}, {0.4f, 0.1f});
  EXPECT_LT(miou_binary(probs, target, 0.5f), 1.0);
  EXPECT_DOUBLE_EQ(miou_binary(probs, target, 0.3f), 1.0);
}

TEST(Rmse, KnownValue) {
  Tensor a({2}, {1.0f, 2.0f});
  Tensor b({2}, {2.0f, 4.0f});
  EXPECT_NEAR(rmse(a, b), std::sqrt((1.0 + 4.0) / 2.0), 1e-7);
}

TEST(Rmse, ZeroForIdentical) {
  Tensor a({3}, {1, 2, 3});
  EXPECT_DOUBLE_EQ(rmse(a, a), 0.0);
}

TEST(Rmse, ShapeMismatchThrows) {
  EXPECT_THROW(rmse(Tensor({2}), Tensor({3})), CheckError);
}

}  // namespace
}  // namespace ripple::core

// ---- serve-side observability primitives -----------------------------------

namespace ripple {
namespace {

using serve::LatencyHistogram;
using serve::UncertaintyMonitor;

TEST(LatencyHistogram, ResetZerosCountsBucketsAndPercentiles) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.record(64);
  ASSERT_EQ(h.count(), 100u);
  ASSERT_GT(h.p95(), 0.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 0.0);
  const LatencyHistogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.total_us, 0u);
  for (const uint64_t b : snap.buckets) EXPECT_EQ(b, 0u);
  // The histogram is fully live again after a reset.
  h.record(8);
  EXPECT_EQ(h.count(), 1u);
}

TEST(LatencyHistogram, ConcurrentRecordsNeverLoseSamples) {
  // The snapshot-consistency contract (serve/metrics.h): concurrent
  // record() calls never lose a sample, snapshots are monotone, and
  // count == Σ buckets in every snapshot.
  LatencyHistogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  // jthreads join on scope exit: a failed ASSERT below returns and reports
  // instead of destroying joinable threads (std::terminate).
  std::vector<std::jthread> writers;
  for (int t = 0; t < kThreads; ++t)
    writers.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.record(8);
    });
  uint64_t last = 0;
  while (last < kThreads * kPerThread) {
    const LatencyHistogram::Snapshot snap = h.snapshot();
    uint64_t sum = 0;
    for (const uint64_t b : snap.buckets) sum += b;
    ASSERT_EQ(snap.count, sum);
    ASSERT_GE(snap.count, last) << "snapshot went backwards";
    last = snap.count;
    std::this_thread::yield();
  }
  writers.clear();  // joins
  const LatencyHistogram::Snapshot final_snap = h.snapshot();
  EXPECT_EQ(final_snap.count,
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(final_snap.total_us,
            static_cast<uint64_t>(kThreads) * kPerThread * 8u);
}

TEST(LatencyHistogram, MergeFromConcurrentWithRecordStaysConsistent) {
  // merge_from a histogram that is being recorded into. The merged view is
  // internally consistent, and its sum/count skew is one-sided: merge_from
  // reads total_us before the buckets, so the buckets may hold samples
  // recorded during the merge whose 4 µs are not in the total, never the
  // reverse.
  LatencyHistogram src;
  // A jthread requests stop and joins on scope exit, so a failed ASSERT
  // reports instead of destroying a joinable thread (std::terminate).
  std::jthread writer([&src](std::stop_token stop) {
    while (!stop.stop_requested()) src.record(4);
  });
  for (int round = 0; round < 50; ++round) {
    LatencyHistogram dst;
    dst.record(4);  // merge accumulates on top of existing counts
    // Samples src had completed (total_us included) before the merge.
    const uint64_t done_before = src.snapshot().total_us / 4;
    dst.merge_from(src);
    const uint64_t count_after = src.count();
    const LatencyHistogram::Snapshot snap = dst.snapshot();
    uint64_t sum = 0;
    for (const uint64_t b : snap.buckets) sum += b;
    ASSERT_EQ(snap.count, sum);
    ASSERT_GE(snap.count, 1u);
    const uint64_t want = snap.count * 4;
    ASSERT_LE(snap.total_us, want)
        << "merged total covers a sample missing from the buckets";
    // The shortfall is bounded by what src gained while the merge ran.
    ASSERT_GE(count_after, done_before);
    ASSERT_LE(want - snap.total_us, 4 * (count_after - done_before));
  }
}

TEST(UncertaintyMonitor, FirstObservationSeedsBothWindows) {
  UncertaintyMonitor m;
  m.record(2.0, 0.5);
  const UncertaintyMonitor::Snapshot s = m.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.entropy_fast, 2.0);
  EXPECT_DOUBLE_EQ(s.entropy_baseline, 2.0);
  EXPECT_DOUBLE_EQ(s.variance_fast, 0.5);
  EXPECT_DOUBLE_EQ(s.variance_baseline, 0.5);
  EXPECT_DOUBLE_EQ(s.drift, 0.0);
}

TEST(UncertaintyMonitor, DriftFollowsAnEntropyShift) {
  UncertaintyMonitor m;
  for (int i = 0; i < 50; ++i) m.record(1.0, 0.1);
  const double settled = std::abs(m.snapshot().drift);
  EXPECT_LT(settled, 1e-9);  // constant signal: fast == baseline
  for (int i = 0; i < 10; ++i) m.record(2.0, 0.1);
  const UncertaintyMonitor::Snapshot s = m.snapshot();
  // The fast window chases the shift ~10x quicker than the baseline.
  EXPECT_GT(s.entropy_fast, s.entropy_baseline);
  EXPECT_GT(s.drift, 0.05);
  m.reset();
  EXPECT_EQ(m.snapshot().count, 0u);
  EXPECT_DOUBLE_EQ(m.snapshot().drift, 0.0);
}

TEST(UncertaintyMonitor, NonFiniteObservationsAreClampedNotPoisonous) {
  UncertaintyMonitor m;
  m.record(std::nan(""), std::numeric_limits<double>::infinity());
  m.record(1.0, 1.0);
  const UncertaintyMonitor::Snapshot s = m.snapshot();
  EXPECT_EQ(s.count, 2u);
  EXPECT_TRUE(std::isfinite(s.entropy_fast));
  EXPECT_TRUE(std::isfinite(s.variance_fast));
  EXPECT_TRUE(std::isfinite(s.drift));
}

TEST(UncertaintyMonitor, ObserveUncertaintyReducesPredictions) {
  UncertaintyMonitor m;
  serve::Classification c;
  c.entropy = Tensor({2}, {0.5f, 1.5f});
  c.variance = Tensor({2, 2}, {0.1f, 0.3f, 0.1f, 0.3f});
  serve::observe_uncertainty(m, serve::Prediction(std::move(c)));
  UncertaintyMonitor::Snapshot s = m.snapshot();
  EXPECT_NEAR(s.entropy_fast, 1.0, 1e-6);   // mean per-sample entropy
  EXPECT_NEAR(s.variance_fast, 0.2, 1e-6);  // mean class variance

  UncertaintyMonitor r;
  serve::Regression reg;
  reg.stddev = Tensor({2}, {1.0f, 3.0f});
  serve::observe_uncertainty(r, serve::Prediction(std::move(reg)));
  s = r.snapshot();
  EXPECT_DOUBLE_EQ(s.entropy_fast, 0.0);  // point forecast: no entropy
  EXPECT_NEAR(s.variance_fast, 5.0, 1e-6);  // mean stddev²
}

TEST(UncertaintyMonitor, FaultInjectedWeightsMoveTheDriftGauge) {
  // The paper's operational premise end-to-end: MC uncertainty scraped
  // from the serving path reveals in-place weight corruption. A healthy
  // batcher settles at drift ≈ 0; after fault injection the entropy
  // distribution shifts and the gauge leaves zero within a few requests.
  models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 4},
                             {.variant = models::Variant::kProposed});
  model.set_training(false);
  model.deploy();
  serve::SessionOptions opts;
  opts.task = serve::TaskKind::kClassification;
  opts.mc_samples = 2;
  opts.seed = 41;
  opts.batch_max_requests = 1;
  opts.batch_max_delay_us = 0;
  serve::InferenceSession session(model, opts);
  serve::AsyncBatcher batcher(session);
  Rng rng(17);
  Tensor x = Tensor::randn({1, 3, 8, 8}, rng);

  for (int i = 0; i < 30; ++i) (void)batcher.submit(x.clone()).get();
  const double healthy =
      std::abs(batcher.counters().uncertainty().snapshot().drift);
  EXPECT_LT(healthy, 1e-9) << "identical healthy requests should settle";

  for (auto* p : model.parameters(autograd::ParamKind::kWeight)) {
    Tensor& w = p->var.value();
    for (int64_t i = 0; i < w.numel(); ++i) w.data()[i] = -w.data()[i];
  }
  session.invalidate_packed_weights();
  for (int i = 0; i < 10; ++i) (void)batcher.submit(x.clone()).get();
  batcher.close();

  const UncertaintyMonitor::Snapshot faulty =
      batcher.counters().uncertainty().snapshot();
  EXPECT_GT(std::abs(faulty.drift), 1e-4)
      << "corrupted weights left the drift gauge at zero";
}

}  // namespace
}  // namespace ripple
