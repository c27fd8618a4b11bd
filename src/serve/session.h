// ripple::serve — the deployment-facing inference API.
//
// The research harness exposes Monte-Carlo uncertainty through *mutable
// model state*: callers flip set_mc_mode / set_mc_replicas, seed per-layer
// mask streams by hand, and pick among free functions with inconsistent
// signatures. That surface cannot serve concurrent traffic — two threads
// would race on the layer flags and RNG counters.
//
// InferenceSession freezes all of that at construction time:
//   • the model is switched to eval + MC-sampling mode once and never
//     toggled again;
//   • every stochastic component (InvertedNorm affine dropout, MC-Dropout
//     element/spatial dropout, the model's ActivationNoiseConfig) is bound
//     to a mask-stream *slot*; per-pass stream state lives in a
//     thread-local McStreamContext owned by each predict() call, so
//     requests never share RNG state — noisy serving included;
//   • conv weight panels are GEMM-packed once (first predict warms a
//     PackedACache, then lookups are lock-free) instead of per call.
//
// After construction, predict() is safe to call from any number of threads
// concurrently, and — because the per-layer streams derive only from the
// session seed — a given input always produces the same result, regardless
// of thread interleaving or request order.
//
// Lifecycle:  construct model → train → deploy() → InferenceSession →
// predict() / predict_many().  One session owns its model's serving state:
// do not drive the model through the legacy set_mc_* surface, or through a
// second session, while a session is alive. If fault injection mutates the
// deployed weights in place, call invalidate_packed_weights() so the packed
// panels are rebuilt (see fault/evaluation.h for a harness that does this).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <variant>
#include <vector>

#include "deploy/backend_kind.h"
#include "deploy/plan.h"
#include "models/task_model.h"
#include "tensor/gemm.h"
#include "tensor/tensor.h"

namespace ripple::core {
class InvertedNorm;
}

namespace ripple::deploy {
class ExecutionBackend;
struct DeployOptions;
struct LoadedArtifact;
}  // namespace ripple::deploy

namespace ripple::serve {

/// Output semantics of the served model — selects what predict() computes
/// from the T stacked stochastic outputs.
enum class TaskKind { kClassification, kRegression, kSegmentation };

const char* task_kind_name(TaskKind kind);

/// How the T Monte-Carlo samples are executed.
///   kBatched — fold the T samples into the batch dimension: one forward
///              pass, per-replica masks (fast path, see fault/mc_batch.h).
///   kSerial  — T separate passes under the same mask streams; the
///              reference path (agrees with kBatched to float rounding).
enum class ExecutionPolicy { kBatched, kSerial };

struct SessionOptions {
  TaskKind task = TaskKind::kClassification;
  /// Stochastic samples T per uncertainty estimate. Deterministic variants
  /// (Conventional) are clamped to 1 unless clamp_samples is false.
  int mc_samples = 8;
  /// Base seed of the deterministic per-layer mask streams. Fixed per
  /// session: the same input always yields the same prediction.
  uint64_t seed = 0x5eedf00dull;
  ExecutionPolicy policy = ExecutionPolicy::kBatched;
  /// Upper bound on stacked rows (T·n) per forward pass; larger requests
  /// are split into input chunks of max(1, max_batch / T) rows. Both
  /// policies chunk identically so they sample identical masks. Chunking
  /// is exact for the proposed variant (its affine masks are per-replica,
  /// not per-row); element/spatial MC-Dropout masks are row-dependent, so
  /// for those variants a chunked request is a different — equally valid,
  /// still deterministic — Monte-Carlo draw than the unchunked one.
  int64_t max_batch = 256;
  /// Clamp mc_samples to 1 for deterministic variants (mc_samples_for).
  /// Disable to stack exactly mc_samples replicas whatever the variant
  /// (e.g. to check that a deterministic model's replicas agree).
  bool clamp_samples = true;
  /// Compile fused, zero-allocation execution plans per (input shape,
  /// chunk offset) and serve from them once each plan is verified
  /// bit-exact against the graph path on that shape (deploy/plan.h).
  /// The graph path remains the fallback for unverified shapes, the
  /// serial policy, and undeployed models. Disable to pin every request
  /// to the graph oracle.
  bool compile = true;

  // ---- AsyncBatcher knobs (serve/batcher.h) --------------------------------
  /// Most requests one coalesced batch takes. An idle worker dispatches
  /// whatever is queued, up to this cap (and batch_max_rows).
  int batch_max_requests = 16;
  /// Coalescing floor. 0 (default): work-conserving — an idle worker
  /// dispatches at once, and batches form only from requests queued while
  /// every worker is busy. > 0: a batch also waits until
  /// batch_max_requests are queued or the oldest queued request has
  /// waited this long (never past a request's hard deadline).
  int64_t batch_max_delay_us = 0;
  /// Rows-based sizing for mixed-size traffic: coalescing stops adding
  /// requests that would push the dispatched rows past this bound (a
  /// single oversized request still dispatches alone), and under a
  /// coalescing floor a batch also dispatches once this many rows are
  /// queued. 0 = requests only.
  int64_t batch_max_rows = 0;
  /// Worker threads draining the batcher queue.
  int batcher_threads = 1;
};

/// Classifier result: MC-averaged probabilities with spread.
struct Classification {
  Tensor mean_probs;                 // [N, C] mean softmax probabilities
  Tensor variance;                   // [N, C] across-sample variance
  Tensor entropy;                    // [N] predictive entropy of mean_probs
  std::vector<int64_t> predictions;  // argmax of mean_probs
  int samples = 0;
};

/// Regressor result: MC mean with predictive spread.
struct Regression {
  Tensor mean;    // MC mean prediction
  Tensor stddev;  // across-sample standard deviation (population)
  int samples = 0;
};

/// Dense binary segmentation result: MC-averaged pixel probabilities.
struct Segmentation {
  Tensor mean_probs;  // sigmoid probabilities, logits' shape
  int samples = 0;
};

using Prediction = std::variant<Classification, Regression, Segmentation>;

/// The one Monte-Carlo reduction per task, behind every serving entry
/// point (predict, predict_into, classify/regress/segment, predict_many).
/// Reduces the stacked [T·N, ...] outputs of `samples` = T stochastic
/// passes (replica-major) into `out`, switching it to the task's
/// alternative and reusing its tensors when their shapes already match:
///   classification — softmax per stacked row, across-replica mean and
///     population variance, predictive entropy of the mean, argmax;
///   regression     — across-replica mean and population stddev;
///   segmentation   — across-replica mean of the sigmoid probabilities.
/// `scratch` stages the per-row probabilities. Bit-equal to composing
/// ops::softmax_rows, fault::replica_moments, core::per_sample_entropy and
/// ops::argmax_rows (fault::replica_mean for segmentation).
void aggregate_into(TaskKind task, const Tensor& stacked, int samples,
                    Tensor& scratch, Prediction& out);

/// One compiled plan + context pool for an (input shape, chunk offset)
/// key; defined in session.cpp.
struct PlanCacheEntry;

/// Outcome of plan compilation for one (input shape, chunk offset) key.
struct PlanInfo {
  bool compiled = false;
  /// Why the session serves this shape from the graph path instead (empty
  /// when compiled, or when no compile was attempted yet).
  std::string fallback_reason;
  deploy::PlanStats stats;  // valid when compiled
  /// Per-step profile of the compiled plan (deploy::set_plan_profiling);
  /// empty when not compiled or profiling has never been enabled.
  std::vector<deploy::PlanOpProfile> op_profile;
};

class InferenceSession {
 public:
  /// Binds the session to `model` (which must outlive it) and freezes the
  /// serving state. The model should be deployed; the session switches it
  /// to eval + MC mode and assigns mask-stream slots to every stochastic
  /// layer. One session per model at a time.
  InferenceSession(models::TaskModel& model, SessionOptions options);

  /// Owning form used by artifact deployment (InferenceSession::open): the
  /// session owns the loaded model and, when `backend` is non-null, routes
  /// every forward's dense compute through it (deploy/exec_backend.h).
  InferenceSession(std::unique_ptr<models::TaskModel> model,
                   SessionOptions options,
                   std::unique_ptr<deploy::ExecutionBackend> backend,
                   deploy::Backend backend_kind);
  ~InferenceSession();
  InferenceSession(const InferenceSession&) = delete;
  InferenceSession& operator=(const InferenceSession&) = delete;

  /// Opens a deployment artifact (deploy/artifact.h) on the execution
  /// substrate selected by `options.backend` — no in-process training, no
  /// re-calibration. Defined in deploy/open.cpp; include deploy/deploy.h
  /// to construct DeployOptions. The overload without options serves the
  /// artifact's embedded defaults on the fp32 backend.
  static std::unique_ptr<InferenceSession> open(
      const std::string& path, const deploy::DeployOptions& options);
  static std::unique_ptr<InferenceSession> open(const std::string& path);

  /// Opens a session from an already-loaded artifact, consuming it — the
  /// replica-fleet path: deploy::load_artifact once, deploy::replicate per
  /// additional replica, then open each copy under its own seed/fault
  /// configuration without touching the disk again (serve/cluster.h).
  static std::unique_ptr<InferenceSession> open(
      deploy::LoadedArtifact artifact, const deploy::DeployOptions& options);

  /// One uncertainty-aware prediction for a batch x [N, ...]; the held
  /// alternative matches options().task. Thread-safe and deterministic:
  /// same input ⇒ same result, from any thread. predict_into on fresh
  /// storage.
  Prediction predict(const Tensor& x) const;

  /// predict() into caller-owned result storage, reusing `out`'s tensors
  /// when their shapes match. When a verified plan covers x's shape, the
  /// forward runs on the plan's arena and is aggregated straight from it
  /// (the steady state performs no heap allocation); otherwise the stacked
  /// mc_outputs(x) are aggregated — which also compiles a plan for next
  /// time. Both use aggregate_into, so results are the same bits either way.
  void predict_into(const Tensor& x, Prediction& out) const;

  /// Traces, compiles and verifies a plan for `input_shape` (batch dim
  /// included) ahead of traffic, using a deterministic ramp input; returns
  /// what a matching request will serve on. Also warms the pack cache.
  PlanInfo precompile(const Shape& input_shape) const;

  /// Compilation state for a shape previously seen (by precompile or a
  /// served request); compiled == false with an empty reason when the
  /// shape has never been compiled.
  PlanInfo plan_info(const Shape& input_shape, int64_t chunk_offset = 0) const;

  /// Per-fused-op execution profile aggregated by op tag over every
  /// compiled plan this session holds (step = -1 in each row). Empty until
  /// deploy::set_plan_profiling(true) has let executes accumulate time.
  /// The metrics endpoint exports these as ripple_plan_op_* families.
  std::vector<deploy::PlanOpProfile> plan_op_profiles() const;

  /// Micro-batching front door: coalesces the requests into chunks of the
  /// session's batch size, runs them through the folded MC forward, and
  /// splits the aggregated results back per request.
  std::vector<Prediction> predict_many(const std::vector<Tensor>& requests) const;

  /// Typed entry points: the alternative predict(x) holds; RIPPLE_CHECK the
  /// session's task kind.
  Classification classify(const Tensor& x) const;
  Regression regress(const Tensor& x) const;
  Segmentation segment(const Tensor& x) const;

  /// The stacked raw model outputs [T·N, ...], replica-major — the
  /// uncertainty estimate before aggregation (aggregate_into reduces it).
  /// Serves from a compiled plan when one is ready, like predict.
  Tensor mc_outputs(const Tensor& x) const;

  /// Rebuilds the frozen packed-weight cache. Required after anything
  /// mutates the deployed weights in place (fault injection): the cache is
  /// keyed by data pointer, which such mutation preserves. Safe to call
  /// while other threads predict (they hold the cache's shared lock), but
  /// remember the *weights* themselves are not guarded — mutate + serve
  /// concurrently and the predictions are torn regardless of the cache.
  void invalidate_packed_weights() const;

  models::TaskModel& model() const { return model_; }
  const SessionOptions& options() const { return options_; }
  /// Execution substrate this session serves on (kFp32 unless opened from
  /// an artifact with a different choice).
  deploy::Backend backend() const { return backend_kind_; }
  /// The installed execution backend, or nullptr (fp32/quantsim digital).
  deploy::ExecutionBackend* exec_backend() const { return backend_.get(); }
  /// Modeled analog serving time (µs) per input row — the backend's
  /// TileCost ADC conversion model, 0 for digital substrates and until the
  /// backend freezes. serve::AsyncBatcher records this per request into
  /// BatcherCounters::analog_latency.
  double modeled_analog_us_per_row() const;
  /// Effective stochastic samples T (after deterministic clamping).
  int samples() const { return samples_; }
  /// Input rows per forward chunk: max(1, max_batch / T).
  int64_t chunk_rows() const { return chunk_rows_; }

  /// Served-request counters (predict_many counts each request).
  uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }
  uint64_t rows_served() const {
    return rows_.load(std::memory_order_relaxed);
  }

 private:
  /// Runs one already-chunk-sized forward [n ≤ chunk_rows_] and returns
  /// the stacked [T·n, ...] outputs under this session's mask streams.
  /// `chunk_offset` is the chunk's starting row within its request (0 for
  /// unchunked) — row-dependent dropout masks mix it in so chunks never
  /// repeat masks.
  Tensor run_chunk(const Tensor& xc, int64_t chunk_offset) const;
  /// The graph oracle: replicate + forward under this chunk's stream
  /// context. Publishes the stacked input to an active TraceRecorder.
  Tensor run_chunk_graph(const Tensor& xc, int64_t chunk_offset) const;
  /// Serves the chunk from a compiled plan when one is ready (compiling
  /// it first if this thread wins the build race); false ⇒ graph path.
  bool run_chunk_planned(const Tensor& xc, int64_t chunk_offset,
                         Tensor* out) const;
  /// Traces + compiles + verifies a plan into `e`; on any failure the
  /// entry is marked failed and the shape serves from the graph. On
  /// success `*verified` receives the plan's output on `xc`, already
  /// checked bit-equal to the traced graph output, so the compiling call
  /// serves it instead of executing the plan again.
  void compile_entry(PlanCacheEntry& e, const Tensor& xc,
                     int64_t chunk_offset, uint64_t fingerprint,
                     Tensor* verified) const;
  /// Forward under the pack cache; first call records + freezes it.
  Tensor forward_cached(const Tensor& stacked_or_chunk) const;

  /// The one plan-execute block: leases a pooled context of `e`'s plan,
  /// runs xc on it under the execution backend and the pack cache's shared
  /// lock, hands `use(arena output, context scratch)` the result, and
  /// returns the context to the pool. False when the entry holds no plan or
  /// the weights were invalidated mid-flight (serve from the graph, which
  /// re-warms the cache). Defined and instantiated in session.cpp only.
  template <typename Use>
  bool execute_plan(PlanCacheEntry& e, const Tensor& xc, Use&& use) const;

  /// Fingerprint of the model's activation-noise configuration; plans bake
  /// noise draws as constants, so a config change invalidates them.
  uint64_t noise_fingerprint() const;

  /// Owned when the session was opened from an artifact; model_ then
  /// references *owned_model_. Declared first so model_ can bind to it.
  std::unique_ptr<models::TaskModel> owned_model_;
  std::unique_ptr<deploy::ExecutionBackend> backend_;
  deploy::Backend backend_kind_ = deploy::Backend::kFp32;
  models::TaskModel& model_;
  SessionOptions options_;
  int samples_ = 1;
  int64_t chunk_rows_ = 1;
  size_t stream_slots_ = 0;
  std::vector<core::InvertedNorm*> inverted_;
  std::vector<nn::Dropout*> dropouts_;
  std::vector<nn::SpatialDropout*> spatial_;

  /// Per-(shape, chunk offset) compiled plans + pooled execution contexts;
  /// defined in session.cpp (pimpl keeps the compiler machinery out of
  /// this header's dependents).
  struct PlanCache;
  std::unique_ptr<PlanCache> plans_;

  mutable PackedACache pack_cache_;
  /// Shared by every frozen-path predict, exclusive for the one-time
  /// warm-up recording and for invalidate_packed_weights(), so clearing
  /// the cache cannot race in-flight lookups.
  mutable std::shared_mutex cache_mutex_;
  mutable std::atomic<uint64_t> requests_{0};
  mutable std::atomic<uint64_t> rows_{0};
};

}  // namespace ripple::serve
