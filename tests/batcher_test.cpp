// serve::AsyncBatcher — deadline-driven cross-thread batching. The
// assertions are deliberately wall-clock independent: correctness is
// "every future completes, bit-exactly equal to the single-thread predict
// oracle, exactly once", regardless of how arrivals and deadlines
// interleave into batches; timing knobs only shape *which* batches form,
// which the counters bound (no batch exceeds max), never the results.
#include "serve/batcher.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "models/lstm_forecaster.h"
#include "models/m5.h"
#include "models/resnet.h"
#include "models/unet.h"
#include "serve/metrics.h"

namespace ripple {
namespace {

using serve::AsyncBatcher;
using serve::BatcherCounters;
using serve::Classification;
using serve::InferenceSession;
using serve::Prediction;
using serve::Regression;
using serve::Segmentation;
using serve::SessionOptions;
using serve::TaskKind;

models::VariantConfig proposed() {
  return {.variant = models::Variant::kProposed};
}

SessionOptions batcher_options(TaskKind task, int samples, uint64_t seed,
                               int max_requests, int64_t max_delay_us,
                               int threads) {
  SessionOptions opts;
  opts.task = task;
  opts.mc_samples = samples;
  opts.seed = seed;
  opts.batch_max_requests = max_requests;
  opts.batch_max_delay_us = max_delay_us;
  opts.batcher_threads = threads;
  return opts;
}

bool tensors_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

/// Bitwise comparison of two predictions of the same task kind.
bool predictions_equal(const Prediction& got, const Prediction& want) {
  if (got.index() != want.index()) return false;
  if (const auto* c = std::get_if<Classification>(&want)) {
    const auto& g = std::get<Classification>(got);
    return g.samples == c->samples && g.predictions == c->predictions &&
           tensors_equal(g.mean_probs, c->mean_probs) &&
           tensors_equal(g.variance, c->variance) &&
           tensors_equal(g.entropy, c->entropy);
  }
  if (const auto* r = std::get_if<Regression>(&want)) {
    const auto& g = std::get<Regression>(got);
    return g.samples == r->samples && tensors_equal(g.mean, r->mean) &&
           tensors_equal(g.stddev, r->stddev);
  }
  const auto& s = std::get<Segmentation>(want);
  const auto& g = std::get<Segmentation>(got);
  return g.samples == s.samples && tensors_equal(g.mean_probs, s.mean_probs);
}

// ---- async vs single-thread oracle, all four task kinds -------------------
// The serve_test hammer pattern lifted to the async path: N client threads
// submit interleaved single requests; every result must be bit-identical
// to what session.predict returned single-threaded before the batcher
// existed. Coalescing is pure batch assembly for the proposed variant
// (row-independent affine masks), so there is no tolerance to hide behind.

void hammer_bit_exact(models::TaskModel& model, TaskKind task,
                      const std::vector<Tensor>& inputs, uint64_t seed) {
  InferenceSession session(
      model, batcher_options(task, 4, seed, /*max_requests=*/3,
                             /*max_delay_us=*/200, /*threads=*/2));
  std::vector<Prediction> oracle;
  for (const Tensor& x : inputs) oracle.push_back(session.predict(x));

  AsyncBatcher batcher(session);
  const int kIters = 6;
  std::vector<std::atomic<int>> mismatches(inputs.size());
  std::vector<std::thread> clients;
  for (size_t ti = 0; ti < inputs.size(); ++ti) {
    clients.emplace_back([&, ti] {
      for (int it = 0; it < kIters; ++it) {
        Prediction got = batcher.submit(inputs[ti]).get();
        if (!predictions_equal(got, oracle[ti])) ++mismatches[ti];
      }
    });
  }
  for (auto& t : clients) t.join();
  for (size_t ti = 0; ti < inputs.size(); ++ti)
    EXPECT_EQ(mismatches[ti].load(), 0) << "client " << ti;
  batcher.close();
  const BatcherCounters& c = batcher.counters();
  EXPECT_EQ(c.submitted(), inputs.size() * kIters);
  EXPECT_EQ(c.completed(), c.submitted());
  EXPECT_EQ(c.queue_depth(), 0);
  EXPECT_LE(c.max_batch_requests(), 3u);
}

TEST(Batcher, ResNetClassificationBitExact) {
  models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 4},
                             proposed());
  Rng rng(1);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 4; ++i)
    inputs.push_back(Tensor::randn({2, 3, 16, 16}, rng));
  hammer_bit_exact(model, TaskKind::kClassification, inputs, 11);
}

TEST(Batcher, M5ClassificationBitExact) {
  models::M5 model({.classes = 8, .width = 4, .input_length = 256},
                   proposed());
  Rng rng(2);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 4; ++i) inputs.push_back(Tensor::randn({1, 1, 256}, rng));
  hammer_bit_exact(model, TaskKind::kClassification, inputs, 21);
}

TEST(Batcher, LstmRegressionBitExact) {
  models::LstmForecaster model({.hidden = 8, .window = 12}, proposed());
  Rng rng(3);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 4; ++i) inputs.push_back(Tensor::randn({2, 12, 1}, rng));
  hammer_bit_exact(model, TaskKind::kRegression, inputs, 31);
}

TEST(Batcher, UNetSegmentationBitExact) {
  models::UNet model({.base_channels = 4, .activation_bits = 4}, proposed());
  Rng rng(4);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 4; ++i)
    inputs.push_back(Tensor::randn({1, 1, 16, 16}, rng));
  hammer_bit_exact(model, TaskKind::kSegmentation, inputs, 41);
}

// ---- property-style coalescing --------------------------------------------

TEST(Batcher, RandomizedArrivalsCompleteExactlyOnceAndBitExact) {
  // Seeded property test: randomized arrival order, request sizes, and
  // deadlines. Whatever batches form, every request completes exactly
  // once with the oracle result, and no dispatched batch exceeds
  // max_batch. Nothing here asserts on elapsed time.
  models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 4},
                             proposed());
  InferenceSession session(
      model, batcher_options(TaskKind::kClassification, 3, 71,
                             /*max_requests=*/3, /*max_delay_us=*/500,
                             /*threads=*/2));
  // Pool of distinct request tensors with 1..3 rows each.
  Rng data_rng(72);
  std::vector<Tensor> pool;
  std::vector<Prediction> oracle;
  for (int64_t rows = 1; rows <= 3; ++rows)
    for (int rep = 0; rep < 2; ++rep)
      pool.push_back(Tensor::randn({rows, 3, 16, 16}, data_rng));
  for (const Tensor& x : pool) oracle.push_back(session.predict(x));

  AsyncBatcher batcher(session);
  const int kProducers = 3;
  const int kPerProducer = 12;
  std::vector<std::atomic<int>> mismatches(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      // Deterministic per-producer choice sequence (seeded, not sampled
      // from wall clock); the OS scheduler provides the arrival shuffle.
      Rng choice(1000 + static_cast<uint64_t>(p));
      for (int i = 0; i < kPerProducer; ++i) {
        const size_t pick = static_cast<size_t>(
            choice.randint(0, static_cast<int64_t>(pool.size()) - 1));
        Prediction got = batcher.submit(pool[pick]).get();
        if (!predictions_equal(got, oracle[pick])) ++mismatches[p];
      }
    });
  }
  for (auto& t : producers) t.join();
  for (int p = 0; p < kProducers; ++p)
    EXPECT_EQ(mismatches[p].load(), 0) << "producer " << p;

  batcher.close();
  const BatcherCounters& c = batcher.counters();
  const uint64_t total =
      static_cast<uint64_t>(kProducers) * static_cast<uint64_t>(kPerProducer);
  EXPECT_EQ(c.submitted(), total);
  EXPECT_EQ(c.completed(), total);  // exactly once: futures are single-shot
  EXPECT_EQ(c.queue_depth(), 0);
  EXPECT_LE(c.max_batch_requests(), 3u);
  EXPECT_GE(c.batches(), (total + 2) / 3);  // ≥ ceil(total / max_batch)
  uint64_t histogram_total = 0;
  for (size_t b = 0; b < BatcherCounters::kHistogramBuckets; ++b)
    histogram_total += c.histogram_bucket(b);
  EXPECT_EQ(histogram_total, c.batches());
}

TEST(Batcher, CloseDrainsQueuedRequestsInsteadOfDropping) {
  // Deadlines far in the future and a batch size nothing reaches: without
  // drain semantics these requests would sit until the deadline. close()
  // must dispatch them all (the futures complete with real results), not
  // drop them.
  models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 4},
                             proposed());
  InferenceSession session(
      model, batcher_options(TaskKind::kClassification, 2, 81,
                             /*max_requests=*/64,
                             /*max_delay_us=*/30'000'000, /*threads=*/1));
  Rng rng(82);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 7; ++i)
    inputs.push_back(Tensor::randn({1, 3, 16, 16}, rng));
  std::vector<Prediction> oracle;
  for (const Tensor& x : inputs) oracle.push_back(session.predict(x));

  AsyncBatcher batcher(session);
  std::vector<std::future<Prediction>> futures =
      batcher.submit_many(inputs);
  batcher.close();
  for (size_t i = 0; i < futures.size(); ++i)
    EXPECT_TRUE(predictions_equal(futures[i].get(), oracle[i]))
        << "request " << i;
  EXPECT_EQ(batcher.counters().completed(), inputs.size());
  EXPECT_EQ(batcher.counters().queue_depth(), 0);

  // Reject-after-close: the request is refused with the typed serving
  // error (serve/status.h), never silently dropped.
  EXPECT_TRUE(batcher.closed());
  try {
    batcher.submit(inputs[0]);
    FAIL() << "submit after close() must throw";
  } catch (const serve::ServeError& e) {
    EXPECT_EQ(e.status(), serve::Status::kClosed);
  }
  EXPECT_EQ(batcher.counters().rejected(), 1u);
}

// ---- per-request hard deadlines --------------------------------------------
// Dispatch is the cancellation point: a request whose deadline has expired
// by the time a worker picks it up fails with Status::kTimeout instead of
// being served late; a request dispatched in time is served normally.

TEST(BatcherDeadline, ExpiredRequestFailsTypedInsteadOfServedLate) {
  models::LstmForecaster model({.hidden = 8, .window = 8}, proposed());
  // max_requests=1: every dispatch is a singleton, so the deadlined
  // request can only be picked up *after* the stalled forward ahead of it.
  InferenceSession session(
      model, batcher_options(TaskKind::kRegression, 2, 84,
                             /*max_requests=*/1,
                             /*max_delay_us=*/1000, /*threads=*/1));
  Rng rng(17);
  Tensor x = Tensor::randn({1, 8, 1}, rng);
  const Prediction oracle = session.predict(x);

  AsyncBatcher batcher(session);
  // Hold the single worker inside a forward long enough for the deadlined
  // request to expire in the queue behind it.
  std::atomic<int> stalls{1};
  batcher.set_forward_hook([&](int64_t) {
    if (stalls.fetch_sub(1) > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
  });
  auto slow = batcher.submit(x);  // no deadline; eats the stall
  auto expired = batcher.submit(x, std::chrono::milliseconds(5));
  auto relaxed = batcher.submit(x, std::chrono::hours(1));

  EXPECT_TRUE(predictions_equal(slow.get(), oracle));
  try {
    expired.get();
    FAIL() << "expired request must fail with kTimeout";
  } catch (const serve::ServeError& e) {
    EXPECT_EQ(e.status(), serve::Status::kTimeout);
  }
  EXPECT_TRUE(predictions_equal(relaxed.get(), oracle));
  batcher.close();
  EXPECT_EQ(batcher.counters().timeouts(), 1u);
  // The timed-out future was still fulfilled — exactly-once accounting.
  EXPECT_EQ(batcher.counters().completed(), 3u);
}

TEST(BatcherDeadline, AlreadyExpiredTimeoutFailsPromptly) {
  models::LstmForecaster model({.hidden = 8, .window = 8}, proposed());
  InferenceSession session(
      model, batcher_options(TaskKind::kRegression, 2, 85,
                             /*max_requests=*/8,
                             /*max_delay_us=*/10'000'000, /*threads=*/1));
  Rng rng(18);
  Tensor x = Tensor::randn({1, 8, 1}, rng);
  AsyncBatcher batcher(session);
  // timeout <= 0 is expired on arrival; the worker must wake for it now,
  // not after the 10 s coalescing delay.
  auto f = batcher.submit(x, std::chrono::microseconds(0));
  EXPECT_THROW(f.get(), serve::ServeError);
  batcher.close();
  EXPECT_EQ(batcher.counters().timeouts(), 1u);
}

TEST(BatcherDeadline, SweepRejectsExpiredWithoutDispatchAndConservesDepth) {
  models::LstmForecaster model({.hidden = 8, .window = 8}, proposed());
  InferenceSession session(
      model, batcher_options(TaskKind::kRegression, 2, 86,
                             /*max_requests=*/1,
                             /*max_delay_us=*/1000, /*threads=*/1));
  Rng rng(19);
  Tensor x1 = Tensor::randn({1, 8, 1}, rng);
  Tensor x2 = Tensor::randn({2, 8, 1}, rng);  // different row shape
  const Prediction oracle = session.predict(x1);

  AsyncBatcher batcher(session);
  std::atomic<int> stalls{1};
  batcher.set_forward_hook([&](int64_t) {
    if (stalls.fetch_sub(1) > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
  });
  auto slow = batcher.submit(x1);  // eats the stall
  // Two requests expire in the queue behind the stalled worker — one of
  // them row-shape-incompatible with the front, so it could never ride
  // the front request's batch.
  auto e1 = batcher.submit(x1, std::chrono::milliseconds(5));
  auto e2 = batcher.submit(x2, std::chrono::milliseconds(5));

  EXPECT_TRUE(predictions_equal(slow.get(), oracle));
  for (auto* f : {&e1, &e2}) {
    try {
      f->get();
      FAIL() << "expired request must fail with kTimeout";
    } catch (const serve::ServeError& e) {
      EXPECT_EQ(e.status(), serve::Status::kTimeout);
    }
  }
  batcher.close();
  // The deadline sweep failed both without ever dispatching them: only
  // the stalled singleton became a batch, yet the queue-depth/completion
  // ledger still balances.
  EXPECT_EQ(batcher.counters().batches(), 1u);
  EXPECT_EQ(batcher.counters().submitted(), 3u);
  EXPECT_EQ(batcher.counters().completed(), 3u);
  EXPECT_EQ(batcher.counters().timeouts(), 2u);
  EXPECT_EQ(batcher.counters().queue_depth(), 0);
}

TEST(BatcherDeadline, ConservationLawHoldsUnderMultiProducerPressure) {
  // Conservation law of the batcher counters: every submitted request is
  // completed exactly once (value or typed failure) and the queue is
  // empty after drain — submitted == completed, queue_depth == 0 — no
  // matter how arrivals, deadlines, and rejection paths interleave.
  models::LstmForecaster model({.hidden = 8, .window = 8}, proposed());
  InferenceSession session(
      model, batcher_options(TaskKind::kRegression, 2, 87,
                             /*max_requests=*/4,
                             /*max_delay_us=*/500, /*threads=*/2));
  Rng rng(20);
  Tensor x = Tensor::randn({1, 8, 1}, rng);

  AsyncBatcher batcher(session);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 32;
  std::vector<std::vector<std::future<Prediction>>> futures(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        // Every other request is expired on arrival (timeout 0) — the
        // deadline-rejection path runs concurrently with real serving.
        futures[p].push_back(
            i % 2 == 0
                ? batcher.submit(x, std::chrono::seconds(30))
                : batcher.submit(x, std::chrono::microseconds(0)));
      }
    });
  }
  for (auto& t : producers) t.join();

  uint64_t ok = 0, timed_out = 0;
  for (auto& per_producer : futures) {
    for (auto& f : per_producer) {
      try {
        f.get();
        ++ok;
      } catch (const serve::ServeError& e) {
        EXPECT_EQ(e.status(), serve::Status::kTimeout);
        ++timed_out;
      }
    }
  }
  batcher.close();
  const BatcherCounters& c = batcher.counters();
  constexpr uint64_t kTotal = kProducers * kPerProducer;
  EXPECT_EQ(ok, kTotal / 2);
  EXPECT_EQ(timed_out, kTotal / 2);
  EXPECT_EQ(c.submitted(), kTotal);
  EXPECT_EQ(c.completed(), kTotal);
  EXPECT_EQ(c.timeouts(), timed_out);
  EXPECT_EQ(c.queue_depth(), 0);
}

TEST(Batcher, ExceptionReachesOnlyTheOffendingFuture) {
  models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 4},
                             proposed());
  InferenceSession session(
      model, batcher_options(TaskKind::kClassification, 2, 91,
                             /*max_requests=*/8,
                             /*max_delay_us=*/20'000, /*threads=*/1));
  Rng rng(92);
  std::vector<Tensor> good;
  for (int i = 0; i < 3; ++i)
    good.push_back(Tensor::randn({1, 3, 16, 16}, rng));
  std::vector<Prediction> oracle;
  for (const Tensor& x : good) oracle.push_back(session.predict(x));

  AsyncBatcher batcher(session);
  // Bad request #1: wrong channel count — groups separately (different
  // per-row shape) and its forward throws.
  std::future<Prediction> bad_shape =
      batcher.submit(Tensor::randn({1, 2, 16, 16}, rng));
  std::future<Prediction> good0 = batcher.submit(good[0]);
  // Bad request #2: zero rows but the *same* per-row shape — it coalesces
  // with the good requests, the coalesced forward throws, and the
  // per-request retry must deliver the exception to this future only.
  std::future<Prediction> bad_empty =
      batcher.submit(Tensor::zeros({0, 3, 16, 16}));
  std::future<Prediction> good1 = batcher.submit(good[1]);
  std::future<Prediction> good2 = batcher.submit(good[2]);

  EXPECT_TRUE(predictions_equal(good0.get(), oracle[0]));
  EXPECT_TRUE(predictions_equal(good1.get(), oracle[1]));
  EXPECT_TRUE(predictions_equal(good2.get(), oracle[2]));
  EXPECT_THROW(bad_shape.get(), CheckError);
  EXPECT_THROW(bad_empty.get(), CheckError);
  batcher.close();
  EXPECT_EQ(batcher.counters().completed(), 5u);
}

// ---- counters --------------------------------------------------------------

TEST(BatcherCountersTest, HistogramBucketsArePowerOfTwoRanges) {
  EXPECT_EQ(BatcherCounters::bucket_for(1), 0u);
  EXPECT_EQ(BatcherCounters::bucket_for(2), 1u);
  EXPECT_EQ(BatcherCounters::bucket_for(3), 2u);
  EXPECT_EQ(BatcherCounters::bucket_for(4), 2u);
  EXPECT_EQ(BatcherCounters::bucket_for(5), 3u);
  EXPECT_EQ(BatcherCounters::bucket_for(8), 3u);
  EXPECT_EQ(BatcherCounters::bucket_for(16), 4u);
  EXPECT_EQ(BatcherCounters::bucket_for(64), 6u);
  EXPECT_EQ(BatcherCounters::bucket_for(65), 7u);
  EXPECT_EQ(BatcherCounters::bucket_for(100000), 7u);
}

// ---- rows-based batch sizing ----------------------------------------------
// Mixed-size traffic with batch_max_rows set: every future still completes
// bit-exactly equal to the predict oracle, and no coalesced batch exceeds
// the rows bound (a single oversized request is the allowed exception).

TEST(BatcherRows, MixedSizesRespectRowsBound) {
  models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 4},
                             proposed());
  SessionOptions opts = batcher_options(TaskKind::kClassification, 3, 77,
                                        /*max_requests=*/16,
                                        /*max_delay_us=*/20'000,
                                        /*threads=*/1);
  opts.batch_max_rows = 4;
  InferenceSession session(model, opts);
  AsyncBatcher batcher(session);

  Rng rng(12);
  const std::vector<int64_t> sizes = {3, 2, 1, 4, 2, 2, 1, 3};
  std::vector<Tensor> inputs;
  for (int64_t n : sizes) inputs.push_back(Tensor::randn({n, 3, 16, 16}, rng));
  std::vector<std::future<Prediction>> futures;
  for (const Tensor& x : inputs) futures.push_back(batcher.submit(x));
  for (size_t i = 0; i < futures.size(); ++i)
    EXPECT_TRUE(predictions_equal(futures[i].get(), session.predict(inputs[i])))
        << "request " << i;
  batcher.close();
  EXPECT_EQ(batcher.max_rows(), 4);
  EXPECT_EQ(batcher.counters().completed(), sizes.size());
  // No request exceeds the bound, so no dispatched batch may either.
  EXPECT_LE(batcher.counters().max_batch_rows(), 4u);
  EXPECT_GE(batcher.counters().batches(), 5u);  // ceil(18 rows / 4) batches
}

TEST(BatcherRows, OversizedRequestDispatchesAlone) {
  models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 4},
                             proposed());
  SessionOptions opts = batcher_options(TaskKind::kClassification, 3, 78,
                                        /*max_requests=*/16,
                                        /*max_delay_us=*/20'000,
                                        /*threads=*/1);
  opts.batch_max_rows = 4;
  InferenceSession session(model, opts);
  AsyncBatcher batcher(session);
  Rng rng(13);
  Tensor big = Tensor::randn({7, 3, 16, 16}, rng);
  Tensor small = Tensor::randn({2, 3, 16, 16}, rng);
  auto f1 = batcher.submit(big);
  auto f2 = batcher.submit(small);
  EXPECT_TRUE(predictions_equal(f1.get(), session.predict(big)));
  EXPECT_TRUE(predictions_equal(f2.get(), session.predict(small)));
  batcher.close();
  // The 7-row request went out; it can only have gone out by itself.
  EXPECT_GE(batcher.counters().max_batch_rows(), 7u);
  EXPECT_GE(batcher.counters().batches(), 2u);
}

TEST(BatcherDeadline, ShortHardDeadlineBehindLongFrontIsHonored) {
  // The front request has no hard deadline and sits under a 10 s
  // coalescing delay; a follower carries a 50 ms hard deadline. The worker
  // must wake on the *earliest* queued dispatch trigger — not just the
  // front's — or the follower would sit out the front's 10 s before
  // failing.
  models::LstmForecaster model({.hidden = 8, .window = 8}, proposed());
  SessionOptions opts = batcher_options(TaskKind::kRegression, 3, 83,
                                        /*max_requests=*/8,
                                        /*max_delay_us=*/10'000'000,
                                        /*threads=*/1);
  InferenceSession session(model, opts);
  AsyncBatcher batcher(session);
  Rng rng(16);
  Tensor x = Tensor::randn({1, 8, 1}, rng);
  const Prediction oracle = session.predict(x);

  const auto start = std::chrono::steady_clock::now();
  auto f1 = batcher.submit(x);  // dispatch trigger: now + 10 s
  auto f2 = batcher.submit(x, std::chrono::milliseconds(50));
  try {
    f2.get();
    FAIL() << "the follower must fail with kTimeout";
  } catch (const serve::ServeError& e) {
    EXPECT_EQ(e.status(), serve::Status::kTimeout);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Far below the 10 s front trigger (generous bound for loaded CI).
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            5);
  EXPECT_TRUE(predictions_equal(f1.get(), oracle));
  batcher.close();
  EXPECT_EQ(batcher.counters().timeouts(), 1u);
  EXPECT_EQ(batcher.counters().completed(), 2u);
}

TEST(LatencyHistogramTest, BucketsAndPercentiles) {
  using serve::LatencyHistogram;
  EXPECT_EQ(LatencyHistogram::bucket_for(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_for(1), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_for(2), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_for(3), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_for(4), 3u);
  EXPECT_EQ(LatencyHistogram::bucket_for(1024), 11u);

  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.p95(), 0.0);
  // 90 fast samples in [16, 32) µs, 10 slow ones in [1024, 2048) µs: p50
  // must land in the fast bucket, p95 and p99 in the slow one.
  for (int i = 0; i < 90; ++i) h.record(20);
  for (int i = 0; i < 10; ++i) h.record(1500);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_GE(h.p50(), 16.0);
  EXPECT_LT(h.p50(), 32.0);
  EXPECT_GE(h.p95(), 1024.0);
  EXPECT_LE(h.p99(), 2048.0);
  EXPECT_NEAR(h.mean_us(), (90.0 * 20 + 10.0 * 1500) / 100.0, 1e-9);

  LatencyHistogram merged;
  merged.record(20);
  merged.merge_from(h);
  EXPECT_EQ(merged.count(), 101u);
}

TEST(BatcherCountersTest, DispatchAccounting) {
  BatcherCounters c;
  for (int i = 0; i < 5; ++i) c.on_submit();
  EXPECT_EQ(c.submitted(), 5u);
  EXPECT_EQ(c.queue_depth(), 5);
  EXPECT_EQ(c.max_queue_depth(), 5u);
  c.on_dispatch(3, 9);
  c.on_dispatch(2, 3);
  c.on_complete(3);
  c.on_complete(2);
  EXPECT_EQ(c.batches(), 2u);
  EXPECT_EQ(c.queue_depth(), 0);
  EXPECT_EQ(c.completed(), 5u);
  EXPECT_EQ(c.max_batch_requests(), 3u);
  EXPECT_EQ(c.max_batch_rows(), 9u);
  EXPECT_DOUBLE_EQ(c.mean_batch_requests(), 2.5);
  EXPECT_DOUBLE_EQ(c.mean_batch_rows(), 6.0);
  EXPECT_EQ(c.histogram_bucket(BatcherCounters::bucket_for(3)), 1u);
  EXPECT_EQ(c.histogram_bucket(BatcherCounters::bucket_for(2)), 1u);
}

}  // namespace
}  // namespace ripple
