// Serving observability: dataset-level evaluation through a session
// (accuracy, RMSE, mIoU) and the lock-free counters of the async batching
// front door.
//
// Each dataset helper streams the test set through session.predict in
// chunks of the session's batch size and aggregates the task metric; the
// session owns the MC sampling (T, seed, policy), so the same session
// reports the same number every time.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "data/dataset.h"
#include "serve/session.h"

namespace ripple::serve {

/// Lock-free fixed-bucket log2 latency histogram. record() costs two
/// relaxed atomic adds; percentiles are extracted on read by walking the
/// cumulative counts and interpolating linearly inside the crossing
/// bucket, so p50/p95/p99 are exact to within one power-of-two bucket.
/// Bucket b counts samples in [2^(b-1), 2^b) microseconds (bucket 0: <1µs,
/// the last bucket is open-ended). Recorded per batcher (and so per
/// cluster replica) and cluster-wide; this is also where the analog
/// backend's serving cost becomes observable — a kCrossbar session with a
/// wider adc_share spends more serial ADC conversion cycles per forward,
/// which lands directly in the replica's p95, not just in the plan's
/// TileCost conversion counts.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 32;

  /// Bucket index of a latency sample (µs).
  static size_t bucket_for(int64_t us);
  /// Inclusive-exclusive [lower, upper) bounds of a bucket, in µs.
  static int64_t bucket_lower_us(size_t bucket);
  static int64_t bucket_upper_us(size_t bucket);

  void record(int64_t us);

  uint64_t count() const;
  /// Sum of recorded latencies (µs) — mean_us() = total/count.
  double mean_us() const;
  /// Latency (µs) at percentile `pct` in [0, 100]; 0 before any sample.
  double percentile(double pct) const;
  double p50() const { return percentile(50.0); }
  double p95() const { return percentile(95.0); }
  double p99() const { return percentile(99.0); }
  uint64_t bucket(size_t b) const;

  /// Accumulates another histogram's counts into this one (cluster-wide
  /// views merge the per-replica histograms). Concurrent records on either
  /// side stay consistent bucket-wise. `other`'s total_us is read before
  /// its buckets, so the skew is one-sided: the merged buckets may include
  /// samples recorded into `other` during the merge whose latency is not
  /// in the merged total_us, but the total never covers a sample missing
  /// from the buckets.
  void merge_from(const LatencyHistogram& other);

  /// Zeros every bucket and the running sum. Not atomic as a whole: a
  /// record() racing a reset() lands entirely in the old or the new
  /// generation per field, so a subsequent snapshot may briefly show a
  /// count/total mismatch of at most the in-flight samples. Intended for
  /// test setup and operator-initiated counter resets, not for use
  /// concurrent with a consistency-sensitive reader.
  void reset();

  /// Plain-value copy of the bucket counts — what the Prometheus exporter
  /// renders (cumulative le-buckets) without holding atomics across
  /// formatting.
  ///
  /// Consistency contract: buckets are read one by one with relaxed loads
  /// and `count` is *derived* from their sum, so a snapshot is always
  /// internally consistent (count == Σ buckets — cumulative le-buckets
  /// never decrease and `+Inf` equals `_count`, which Prometheus requires).
  /// Concurrent record()/merge_from() calls never lose or double-count a
  /// sample, but a snapshot taken mid-record may include a sample's bucket
  /// increment without its total_us (or vice versa), skewing mean_us by at
  /// most the in-flight samples. Snapshots are monotone: a later snapshot's
  /// per-bucket counts are ≥ an earlier one's (absent reset()).
  struct Snapshot {
    std::array<uint64_t, kBuckets> buckets{};
    uint64_t total_us = 0;
    uint64_t count = 0;
  };
  Snapshot snapshot() const;

 private:
  static constexpr std::memory_order relaxed = std::memory_order_relaxed;

  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> total_us_{0};
};

/// Streaming monitor of a serving unit's predictive-uncertainty signals —
/// the paper's operational premise made scrapeable: stochastic-affine MC
/// uncertainty reveals hardware faults, so entropy/variance drift on a
/// replica is visible from Prometheus before any accuracy data exists.
///
/// Two EWMAs per signal: a *fast* window (alpha 0.2, tracks the last ~5
/// requests) and a slow *baseline* (alpha 0.02, the last ~50). The drift
/// gauge is the fast entropy's relative departure from baseline
/// (fast/baseline − 1): a healthy unit hovers near 0; a fault-injected or
/// degrading chip instance pushes entropy up and the gauge follows within
/// a handful of requests. All updates are lock-free CAS on bit-cast
/// atomic doubles — record() is called on the batcher's hot completion
/// path for every successful request, tracing on or off.
class UncertaintyMonitor {
 public:
  void record(double entropy, double variance);

  struct Snapshot {
    uint64_t count = 0;
    double entropy_fast = 0.0;
    double entropy_baseline = 0.0;
    double variance_fast = 0.0;
    double variance_baseline = 0.0;
    /// entropy_fast / entropy_baseline − 1, or 0 while the baseline is
    /// still too small (< 1e-9) to divide by.
    double drift = 0.0;
  };
  Snapshot snapshot() const;

  void reset();

 private:
  static constexpr std::memory_order relaxed = std::memory_order_relaxed;
  static constexpr double kFastAlpha = 0.2;
  static constexpr double kBaselineAlpha = 0.02;

  static void ewma_update(std::atomic<uint64_t>& slot, double value,
                          double alpha, bool first);

  std::atomic<uint64_t> count_{0};
  // EWMAs stored as bit-cast doubles so record() stays lock-free.
  std::atomic<uint64_t> entropy_fast_{0};
  std::atomic<uint64_t> entropy_baseline_{0};
  std::atomic<uint64_t> variance_fast_{0};
  std::atomic<uint64_t> variance_baseline_{0};
};

/// Reduces a Prediction to its scalar uncertainty signals and records them:
/// classification → mean per-sample entropy + mean class variance;
/// regression → variance = mean stddev² (entropy 0, undefined for a point
/// forecast); segmentation → mean binary entropy of the pixel
/// probabilities + mean p(1−p). Pure loops over already-computed tensors —
/// no allocation, safe on the zero-alloc serving path.
void observe_uncertainty(UncertaintyMonitor& monitor, const Prediction& pred);

/// Counters of one serve::AsyncBatcher — queue depth, dispatch counts, and
/// a power-of-two batch-size histogram. Everything is atomic: the submit
/// path and the workers update them, and any thread may read at any time
/// (values are monotonic except queue_depth). Exposed by
/// AsyncBatcher::counters() for dashboards and the coalescing tests.
class BatcherCounters {
 public:
  /// Histogram buckets by dispatched batch size (requests): 1, 2, 3–4,
  /// 5–8, 9–16, 17–32, 33–64, 65+.
  static constexpr size_t kHistogramBuckets = 8;

  /// Bucket index for a dispatched batch of `requests`.
  static size_t bucket_for(size_t requests);

  void on_submit();
  void on_reject();
  void on_dispatch(size_t batch_requests, size_t batch_rows);
  void on_complete(size_t batch_requests);
  void on_timeout();
  /// Deadline sweep: `requests` expired in the queue and are being failed
  /// without ever joining a batch. Decrements queue_depth — the other half
  /// of the conservation law (on_dispatch covers batched requests) — and
  /// nothing else; the caller still reports on_timeout/on_complete per
  /// request once the futures are failed.
  void on_expire(size_t requests);

  uint64_t submitted() const { return submitted_.load(relaxed); }
  uint64_t rejected() const { return rejected_.load(relaxed); }
  /// Requests whose future has been fulfilled (value or exception).
  uint64_t completed() const { return completed_.load(relaxed); }
  uint64_t batches() const { return batches_.load(relaxed); }
  /// Requests queued but not yet dispatched into a batch.
  int64_t queue_depth() const { return queue_depth_.load(relaxed); }
  uint64_t max_queue_depth() const { return max_queue_depth_.load(relaxed); }
  /// Largest batch dispatched so far — the coalescing tests assert this
  /// never exceeds the configured max.
  uint64_t max_batch_requests() const { return max_batch_.load(relaxed); }
  /// Largest dispatched batch in *rows* — the rows-based sizing tests
  /// assert this never exceeds batch_max_rows (oversized singletons
  /// excepted).
  uint64_t max_batch_rows() const { return max_rows_.load(relaxed); }
  /// Mean dispatched batch size (0 before the first dispatch).
  double mean_batch_requests() const;
  double mean_batch_rows() const;
  uint64_t histogram_bucket(size_t bucket) const;
  /// Requests failed with Status::kTimeout because their deadline had
  /// already expired when a worker dispatched them (serve/batcher.h).
  /// Timeouts count in completed() too — the future was fulfilled.
  uint64_t timeouts() const { return timeouts_.load(relaxed); }

  /// Submit-to-completion latency of every fulfilled request (values and
  /// typed failures alike).
  const LatencyHistogram& latency() const { return latency_; }
  LatencyHistogram& latency() { return latency_; }

  /// Modeled analog serving time (µs) per successful request on a crossbar
  /// backend: the TileCost conversion count of the session's frozen tiling
  /// plan × the configured ADC cycle time × the request's rows. Empty for
  /// digital backends. Kept separate from latency() — wall-clock measures
  /// the simulation, this measures the modeled hardware.
  const LatencyHistogram& analog_latency() const { return analog_latency_; }
  LatencyHistogram& analog_latency() { return analog_latency_; }

  /// Streaming entropy/variance EWMAs of every successful prediction this
  /// batcher resolved — the per-unit drift signal the metrics endpoint
  /// exports (see UncertaintyMonitor).
  const UncertaintyMonitor& uncertainty() const { return uncertainty_; }
  UncertaintyMonitor& uncertainty() { return uncertainty_; }

 private:
  static constexpr std::memory_order relaxed = std::memory_order_relaxed;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> dispatched_{0};
  std::atomic<int64_t> queue_depth_{0};
  std::atomic<uint64_t> max_queue_depth_{0};
  std::atomic<uint64_t> max_batch_{0};
  std::atomic<uint64_t> max_rows_{0};
  std::atomic<uint64_t> dispatched_rows_{0};
  std::atomic<uint64_t> timeouts_{0};
  std::array<std::atomic<uint64_t>, kHistogramBuckets> histogram_{};
  LatencyHistogram latency_;
  LatencyHistogram analog_latency_;
  UncertaintyMonitor uncertainty_;
};

/// Classification accuracy of the MC-mean prediction over `test`.
double accuracy(const InferenceSession& session,
                const data::ClassificationData& test);

/// Forecast RMSE (normalized units) of the MC-mean prediction.
double rmse(const InferenceSession& session, const data::SeriesData& test);

/// Binary segmentation mIoU of the thresholded MC-mean probabilities,
/// aggregated over the whole set (not per batch).
double miou(const InferenceSession& session,
            const data::SegmentationData& test);

}  // namespace ripple::serve
