#include "serve/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace ripple::serve {

namespace {

/// Monotonic max update without a CAS loop footgun.
void update_max(std::atomic<uint64_t>& slot, uint64_t value) {
  uint64_t seen = slot.load(std::memory_order_relaxed);
  while (seen < value &&
         !slot.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

size_t LatencyHistogram::bucket_for(int64_t us) {
  if (us <= 0) return 0;
  size_t bucket = 0;
  // bucket b covers [2^(b-1), 2^b): 1µs → bucket 1, 1000µs → bucket 10.
  while (us > 0 && bucket + 1 < kBuckets) {
    us >>= 1;
    ++bucket;
  }
  return bucket;
}

int64_t LatencyHistogram::bucket_lower_us(size_t bucket) {
  return bucket == 0 ? 0 : int64_t{1} << (bucket - 1);
}

int64_t LatencyHistogram::bucket_upper_us(size_t bucket) {
  return int64_t{1} << bucket;
}

void LatencyHistogram::record(int64_t us) {
  buckets_[bucket_for(us)].fetch_add(1, relaxed);
  // Release: a reader that acquires total_us_ also sees this bucket add.
  total_us_.fetch_add(static_cast<uint64_t>(std::max<int64_t>(0, us)),
                      std::memory_order_release);
}

uint64_t LatencyHistogram::count() const {
  uint64_t n = 0;
  for (const auto& b : buckets_) n += b.load(relaxed);
  return n;
}

double LatencyHistogram::mean_us() const {
  const uint64_t n = count();
  if (n == 0) return 0.0;
  return static_cast<double>(total_us_.load(relaxed)) /
         static_cast<double>(n);
}

double LatencyHistogram::percentile(double pct) const {
  RIPPLE_CHECK(pct >= 0.0 && pct <= 100.0)
      << "percentile " << pct << " out of [0, 100]";
  uint64_t counts[kBuckets];
  uint64_t n = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    counts[b] = buckets_[b].load(relaxed);
    n += counts[b];
  }
  if (n == 0) return 0.0;
  // Rank of the requested percentile (1-based, nearest-rank), then linear
  // interpolation between the crossing bucket's bounds.
  const double rank = pct / 100.0 * static_cast<double>(n);
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    if (counts[b] == 0) continue;
    if (static_cast<double>(seen + counts[b]) >= rank) {
      const double into =
          std::max(0.0, rank - static_cast<double>(seen)) /
          static_cast<double>(counts[b]);
      const double lower = static_cast<double>(bucket_lower_us(b));
      const double upper = static_cast<double>(bucket_upper_us(b));
      return lower + into * (upper - lower);
    }
    seen += counts[b];
  }
  return static_cast<double>(bucket_upper_us(kBuckets - 1));
}

uint64_t LatencyHistogram::bucket(size_t b) const {
  RIPPLE_CHECK(b < kBuckets) << "latency bucket " << b << " out of range";
  return buckets_[b].load(relaxed);
}

void LatencyHistogram::merge_from(const LatencyHistogram& other) {
  // total_us first (acquire, paired with record's release): every sample
  // it covers has its bucket add visible to the bucket reads below, so the
  // merged buckets can only run ahead of the merged sum, never behind.
  const uint64_t total = other.total_us_.load(std::memory_order_acquire);
  for (size_t b = 0; b < kBuckets; ++b)
    buckets_[b].fetch_add(other.buckets_[b].load(relaxed), relaxed);
  total_us_.fetch_add(total, relaxed);
}

void LatencyHistogram::reset() {
  for (auto& b : buckets_) b.store(0, relaxed);
  total_us_.store(0, relaxed);
}

LatencyHistogram::Snapshot LatencyHistogram::snapshot() const {
  Snapshot s;
  for (size_t b = 0; b < kBuckets; ++b) {
    s.buckets[b] = buckets_[b].load(relaxed);
    s.count += s.buckets[b];
  }
  s.total_us = total_us_.load(relaxed);
  return s;
}

void UncertaintyMonitor::ewma_update(std::atomic<uint64_t>& slot, double value,
                                     double alpha, bool first) {
  uint64_t seen = slot.load(relaxed);
  while (true) {
    const double current = std::bit_cast<double>(seen);
    const double next =
        first ? value : current + alpha * (value - current);
    if (slot.compare_exchange_weak(seen, std::bit_cast<uint64_t>(next),
                                   relaxed)) {
      return;
    }
  }
}

void UncertaintyMonitor::record(double entropy, double variance) {
  if (!std::isfinite(entropy)) entropy = 0.0;
  if (!std::isfinite(variance)) variance = 0.0;
  // Seed every EWMA with the first observation so the baseline doesn't
  // spend ~1/alpha requests climbing from zero.
  const bool first = count_.fetch_add(1, relaxed) == 0;
  ewma_update(entropy_fast_, entropy, kFastAlpha, first);
  ewma_update(entropy_baseline_, entropy, kBaselineAlpha, first);
  ewma_update(variance_fast_, variance, kFastAlpha, first);
  ewma_update(variance_baseline_, variance, kBaselineAlpha, first);
}

UncertaintyMonitor::Snapshot UncertaintyMonitor::snapshot() const {
  Snapshot s;
  s.count = count_.load(relaxed);
  s.entropy_fast = std::bit_cast<double>(entropy_fast_.load(relaxed));
  s.entropy_baseline = std::bit_cast<double>(entropy_baseline_.load(relaxed));
  s.variance_fast = std::bit_cast<double>(variance_fast_.load(relaxed));
  s.variance_baseline =
      std::bit_cast<double>(variance_baseline_.load(relaxed));
  if (std::abs(s.entropy_baseline) > 1e-9) {
    s.drift = s.entropy_fast / s.entropy_baseline - 1.0;
  }
  return s;
}

void UncertaintyMonitor::reset() {
  count_.store(0, relaxed);
  entropy_fast_.store(0, relaxed);
  entropy_baseline_.store(0, relaxed);
  variance_fast_.store(0, relaxed);
  variance_baseline_.store(0, relaxed);
}

namespace {

double tensor_mean(const Tensor& t) {
  if (t.numel() == 0) return 0.0;
  double sum = 0.0;
  const float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) sum += p[i];
  return sum / static_cast<double>(t.numel());
}

}  // namespace

void observe_uncertainty(UncertaintyMonitor& monitor, const Prediction& pred) {
  double entropy = 0.0;
  double variance = 0.0;
  if (const auto* cls = std::get_if<Classification>(&pred)) {
    entropy = tensor_mean(cls->entropy);
    variance = tensor_mean(cls->variance);
  } else if (const auto* reg = std::get_if<Regression>(&pred)) {
    // A point forecast has no categorical entropy; MC spread is the signal.
    const float* p = reg->stddev.data();
    double sum = 0.0;
    for (int64_t i = 0; i < reg->stddev.numel(); ++i)
      sum += static_cast<double>(p[i]) * static_cast<double>(p[i]);
    if (reg->stddev.numel() > 0)
      variance = sum / static_cast<double>(reg->stddev.numel());
  } else if (const auto* seg = std::get_if<Segmentation>(&pred)) {
    const float* p = seg->mean_probs.data();
    double hsum = 0.0;
    double vsum = 0.0;
    for (int64_t i = 0; i < seg->mean_probs.numel(); ++i) {
      const double q = std::clamp(static_cast<double>(p[i]), 1e-12, 1.0 - 1e-12);
      hsum += -(q * std::log(q) + (1.0 - q) * std::log(1.0 - q));
      vsum += q * (1.0 - q);
    }
    if (seg->mean_probs.numel() > 0) {
      entropy = hsum / static_cast<double>(seg->mean_probs.numel());
      variance = vsum / static_cast<double>(seg->mean_probs.numel());
    }
  }
  monitor.record(entropy, variance);
}

size_t BatcherCounters::bucket_for(size_t requests) {
  if (requests <= 1) return 0;
  size_t bucket = 1;
  size_t upper = 2;  // inclusive upper bound of `bucket`
  while (requests > upper && bucket + 1 < kHistogramBuckets) {
    upper *= 2;
    ++bucket;
  }
  return bucket;
}

void BatcherCounters::on_submit() {
  submitted_.fetch_add(1, relaxed);
  const int64_t depth = queue_depth_.fetch_add(1, relaxed) + 1;
  update_max(max_queue_depth_, static_cast<uint64_t>(depth));
}

void BatcherCounters::on_reject() { rejected_.fetch_add(1, relaxed); }

void BatcherCounters::on_dispatch(size_t batch_requests, size_t batch_rows) {
  batches_.fetch_add(1, relaxed);
  dispatched_.fetch_add(batch_requests, relaxed);
  dispatched_rows_.fetch_add(batch_rows, relaxed);
  queue_depth_.fetch_sub(static_cast<int64_t>(batch_requests), relaxed);
  update_max(max_batch_, batch_requests);
  update_max(max_rows_, batch_rows);
  histogram_[bucket_for(batch_requests)].fetch_add(1, relaxed);
}

void BatcherCounters::on_complete(size_t batch_requests) {
  completed_.fetch_add(batch_requests, relaxed);
}

void BatcherCounters::on_timeout() { timeouts_.fetch_add(1, relaxed); }

void BatcherCounters::on_expire(size_t requests) {
  queue_depth_.fetch_sub(static_cast<int64_t>(requests), relaxed);
}

double BatcherCounters::mean_batch_requests() const {
  const uint64_t batches = batches_.load(relaxed);
  if (batches == 0) return 0.0;
  return static_cast<double>(dispatched_.load(relaxed)) /
         static_cast<double>(batches);
}

double BatcherCounters::mean_batch_rows() const {
  const uint64_t batches = batches_.load(relaxed);
  if (batches == 0) return 0.0;
  return static_cast<double>(dispatched_rows_.load(relaxed)) /
         static_cast<double>(batches);
}

uint64_t BatcherCounters::histogram_bucket(size_t bucket) const {
  RIPPLE_CHECK(bucket < kHistogramBuckets)
      << "histogram bucket " << bucket << " out of range";
  return histogram_[bucket].load(relaxed);
}

// Each metric walks the test set in batches of the session's chunk size
// and reduces as it goes, so peak memory is one chunk's stacked outputs —
// not the whole set's — matching the legacy per-batch evaluation loops.

double accuracy(const InferenceSession& session,
                const data::ClassificationData& test) {
  int64_t correct = 0;
  for (auto [begin, end] :
       data::batch_ranges(test.size(), session.chunk_rows())) {
    Tensor xb = data::slice_rows(test.x, begin, end - begin);
    const Classification mc = session.classify(xb);
    for (int64_t i = begin; i < end; ++i)
      if (mc.predictions[static_cast<size_t>(i - begin)] ==
          test.y[static_cast<size_t>(i)])
        ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(test.size());
}

double rmse(const InferenceSession& session, const data::SeriesData& test) {
  double sq_sum = 0.0;
  int64_t count = 0;
  for (auto [begin, end] :
       data::batch_ranges(test.size(), session.chunk_rows())) {
    Tensor xb = data::slice_rows(test.windows, begin, end - begin);
    Tensor yb = data::slice_rows(test.targets, begin, end - begin);
    const Regression mc = session.regress(xb);
    const float* pp = mc.mean.data();
    const float* pt = yb.data();
    for (int64_t i = 0; i < yb.numel(); ++i) {
      const double d = pp[i] - pt[i];
      sq_sum += d * d;
      ++count;
    }
  }
  return std::sqrt(sq_sum / static_cast<double>(count));
}

double miou(const InferenceSession& session,
            const data::SegmentationData& test) {
  // Aggregate intersection/union over the whole set, not per batch.
  int64_t inter_fg = 0;
  int64_t union_fg = 0;
  int64_t inter_bg = 0;
  int64_t union_bg = 0;
  for (auto [begin, end] :
       data::batch_ranges(test.size(), session.chunk_rows())) {
    Tensor xb = data::slice_rows(test.images, begin, end - begin);
    Tensor yb = data::slice_rows(test.masks, begin, end - begin);
    const Segmentation mc = session.segment(xb);
    const float* pp = mc.mean_probs.data();
    const float* pt = yb.data();
    for (int64_t i = 0; i < mc.mean_probs.numel(); ++i) {
      const bool p = pp[i] >= 0.5f;
      const bool t = pt[i] >= 0.5f;
      if (p && t) ++inter_fg;
      if (p || t) ++union_fg;
      if (!p && !t) ++inter_bg;
      if (!p || !t) ++union_bg;
    }
  }
  const double iou_fg =
      union_fg > 0 ? static_cast<double>(inter_fg) / union_fg : 1.0;
  const double iou_bg =
      union_bg > 0 ? static_cast<double>(inter_bg) / union_bg : 1.0;
  return 0.5 * (iou_fg + iou_bg);
}

}  // namespace ripple::serve
