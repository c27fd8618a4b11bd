#include "serve/session.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/inverted_norm.h"
#include "core/mc_stream.h"
#include "core/uncertainty.h"
#include "data/dataset.h"
#include "deploy/exec_backend.h"
#include "deploy/trace.h"
#include "fault/mc_batch.h"
#include "models/variants.h"
#include "nn/dropout.h"
#include "nn/noise.h"
#include "serve/trace.h"

namespace ripple::serve {

namespace {

/// True when t already matches ref's shape with leading dim `rows`; the
/// steady-state predict_into path must not construct a Shape (that would
/// allocate), so shapes are compared dim-by-dim.
bool matches_rows(const Tensor& t, const Tensor& ref, int64_t rows) {
  if (!t.defined() || t.rank() != ref.rank() || t.dim(0) != rows) return false;
  for (int d = 1; d < ref.rank(); ++d)
    if (t.dim(d) != ref.dim(d)) return false;
  return true;
}

/// (Re)allocates t as [rows, ref.dims(1..)] only on shape mismatch.
void ensure_like(Tensor& t, const Tensor& ref, int64_t rows) {
  if (matches_rows(t, ref, rows)) return;
  Shape s = ref.shape();
  s[0] = rows;
  t = Tensor::empty(std::move(s));
}

/// Across-replica mean and population variance (E[y²]−E[y]², clamped at 0)
/// of the t replica blocks of `stacked` — fault::replica_moments' exact
/// accumulation, into reused [T·N / t, ...] tensors.
void replica_moments_into(const Tensor& stacked, int64_t t, Tensor& mean,
                          Tensor& variance) {
  ensure_like(mean, stacked, stacked.dim(0) / t);
  ensure_like(variance, stacked, stacked.dim(0) / t);
  const int64_t block = mean.numel();
  float* pm = mean.data();
  float* pv = variance.data();
  std::memset(pm, 0, sizeof(float) * static_cast<size_t>(block));
  std::memset(pv, 0, sizeof(float) * static_cast<size_t>(block));
  const float* ps = stacked.data();
  for (int64_t r = 0; r < t; ++r) {
    const float* src = ps + r * block;
    for (int64_t i = 0; i < block; ++i) {
      pm[i] += src[i];
      pv[i] += src[i] * src[i];
    }
  }
  const float inv = 1.0f / static_cast<float>(t);
  for (int64_t i = 0; i < block; ++i) {
    pm[i] *= inv;
    const float var = pv[i] * inv - pm[i] * pm[i];
    pv[i] = var > 0.0f ? var : 0.0f;
  }
}

void classify_into(const Tensor& stacked, int64_t t, Tensor& scratch,
                   Classification& out) {
  RIPPLE_CHECK(stacked.rank() == 2)
      << "classification expects [N,C] logits, model returned "
      << shape_to_string(stacked.shape());
  const int64_t tn = stacked.dim(0);
  const int64_t c = stacked.dim(1);
  const int64_t n = tn / t;
  // Softmax into the staging buffer — same loop as ops::softmax_rows.
  ensure_like(scratch, stacked, tn);
  const float* pl = stacked.data();
  float* po = scratch.data();
  for (int64_t i = 0; i < tn; ++i) {
    const float* row = pl + i * c;
    float* orow = po + i * c;
    const float mx = *std::max_element(row, row + c);
    double denom = 0.0;
    for (int64_t j = 0; j < c; ++j) {
      orow[j] = std::exp(row[j] - mx);
      denom += orow[j];
    }
    for (int64_t j = 0; j < c; ++j)
      orow[j] = static_cast<float>(orow[j] / denom);
  }
  replica_moments_into(scratch, t, out.mean_probs, out.variance);
  if (!out.entropy.defined() || out.entropy.rank() != 1 ||
      out.entropy.dim(0) != n)
    out.entropy = Tensor::empty({n});
  core::per_sample_entropy_into(out.mean_probs, out.entropy.data());
  // Argmax of the mean — same tie-breaking as ops::argmax_rows.
  const float* pm = out.mean_probs.data();
  out.predictions.resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const float* row = pm + i * c;
    out.predictions[static_cast<size_t>(i)] =
        std::max_element(row, row + c) - row;
  }
  out.samples = static_cast<int>(t);
}

void regress_into(const Tensor& stacked, int64_t t, Regression& out) {
  replica_moments_into(stacked, t, out.mean, out.stddev);
  float* pv = out.stddev.data();
  for (int64_t i = 0; i < out.stddev.numel(); ++i)
    pv[i] = pv[i] > 0.0f ? std::sqrt(pv[i]) : 0.0f;
  out.samples = static_cast<int>(t);
}

void segment_into(const Tensor& stacked, int64_t t, Tensor& scratch,
                  Segmentation& out) {
  ensure_like(scratch, stacked, stacked.dim(0));
  const float* pl = stacked.data();
  float* po = scratch.data();
  for (int64_t i = 0; i < stacked.numel(); ++i)
    po[i] = 1.0f / (1.0f + std::exp(-pl[i]));
  // Mean over replicas — same accumulation as fault::replica_mean.
  ensure_like(out.mean_probs, stacked, stacked.dim(0) / t);
  const int64_t block = out.mean_probs.numel();
  float* pm = out.mean_probs.data();
  std::memset(pm, 0, sizeof(float) * static_cast<size_t>(block));
  for (int64_t r = 0; r < t; ++r) {
    const float* src = po + r * block;
    for (int64_t i = 0; i < block; ++i) pm[i] += src[i];
  }
  const float inv = 1.0f / static_cast<float>(t);
  for (int64_t i = 0; i < block; ++i) pm[i] *= inv;
  out.samples = static_cast<int>(t);
}

/// The alternative A of `out`, switched to (default-constructed) only when
/// `out` holds another one, so a reused Prediction keeps its storage.
template <typename A>
A& hold(Prediction& out) {
  if (A* a = std::get_if<A>(&out)) return *a;
  return out.emplace<A>();
}

}  // namespace

void aggregate_into(TaskKind task, const Tensor& stacked, int samples,
                    Tensor& scratch, Prediction& out) {
  RIPPLE_CHECK(samples >= 1 && stacked.rank() >= 1 &&
               stacked.dim(0) % samples == 0)
      << "aggregate_into: " << shape_to_string(stacked.shape())
      << " is not " << samples << " stacked replica blocks";
  switch (task) {
    case TaskKind::kClassification:
      return classify_into(stacked, samples, scratch,
                           hold<Classification>(out));
    case TaskKind::kRegression:
      return regress_into(stacked, samples, hold<Regression>(out));
    case TaskKind::kSegmentation:
      return segment_into(stacked, samples, scratch, hold<Segmentation>(out));
  }
}

/// One leased execution context: the plan's buffer arena plus aggregation
/// staging, reused across requests so the steady state never allocates.
struct PlanPooled {
  std::unique_ptr<deploy::PlanContext> ctx;
  Tensor scratch;  // aggregation staging (softmax / sigmoid probs)
  const deploy::ExecutionPlan* plan = nullptr;
};

struct PlanCacheEntry {
  static constexpr int kBuilding = 0;
  static constexpr int kReady = 1;
  static constexpr int kFailed = 2;

  Shape dims;
  int64_t chunk_offset = 0;
  /// Serializes compilation; predict threads that fail the try_lock
  /// serve from the graph instead of queueing behind the build.
  std::mutex build_mutex;
  std::atomic<int> state{kBuilding};
  /// Noise-config fingerprint the plan was compiled under; plans bake
  /// stochastic draws as constants, so a mismatch forces a rebuild.
  uint64_t fingerprint = 0;
  /// Guards plan, pool and fallback_reason.
  std::mutex pool_mutex;
  std::shared_ptr<const deploy::ExecutionPlan> plan;
  std::vector<std::unique_ptr<PlanPooled>> pool;
  std::string fallback_reason;
};

/// Compiled plans keyed by (input dims, chunk offset). Entries are
/// shared_ptrs so an in-flight execute outlives
/// invalidate_packed_weights() clearing the cache; a pooled context
/// records the plan it belongs to and is discarded on release if the
/// entry was rebuilt meanwhile.
struct InferenceSession::PlanCache {
  static constexpr size_t kMaxPlans = 8;
  using EntryPtr = std::shared_ptr<PlanCacheEntry>;

  std::shared_mutex mutex;
  std::vector<EntryPtr> entries;

  EntryPtr find(const Shape& dims, int64_t chunk_offset) {
    std::shared_lock<std::shared_mutex> lock(mutex);
    for (const EntryPtr& e : entries)
      if (e->chunk_offset == chunk_offset && e->dims == dims) return e;
    return nullptr;
  }

  /// nullptr when the cache is full of other keys — those shapes serve
  /// from the graph path permanently rather than thrash compilations.
  EntryPtr find_or_create(const Shape& dims, int64_t chunk_offset) {
    if (EntryPtr e = find(dims, chunk_offset)) return e;
    std::unique_lock<std::shared_mutex> lock(mutex);
    for (const EntryPtr& e : entries)
      if (e->chunk_offset == chunk_offset && e->dims == dims) return e;
    if (entries.size() >= kMaxPlans) return nullptr;
    EntryPtr e = std::make_shared<PlanCacheEntry>();
    e->dims = dims;
    e->chunk_offset = chunk_offset;
    entries.push_back(e);
    return e;
  }

  void clear() {
    std::unique_lock<std::shared_mutex> lock(mutex);
    entries.clear();
  }
};

const char* task_kind_name(TaskKind kind) {
  switch (kind) {
    case TaskKind::kClassification:
      return "classification";
    case TaskKind::kRegression:
      return "regression";
    case TaskKind::kSegmentation:
      return "segmentation";
  }
  return "unknown";
}

InferenceSession::InferenceSession(std::unique_ptr<models::TaskModel> model,
                                   SessionOptions options,
                                   std::unique_ptr<deploy::ExecutionBackend>
                                       backend,
                                   deploy::Backend backend_kind)
    : InferenceSession(*model, options) {
  owned_model_ = std::move(model);
  backend_ = std::move(backend);
  backend_kind_ = backend_kind;
}

InferenceSession::InferenceSession(models::TaskModel& model,
                                   SessionOptions options)
    : model_(model), options_(options) {
  RIPPLE_CHECK(options_.mc_samples >= 1)
      << "InferenceSession needs mc_samples >= 1";
  RIPPLE_CHECK(options_.max_batch >= 1)
      << "InferenceSession needs max_batch >= 1";
  samples_ = options_.clamp_samples
                 ? models::mc_samples_for(model_.variant(), options_.mc_samples)
                 : options_.mc_samples;
  chunk_rows_ = std::max<int64_t>(1, options_.max_batch / samples_);

  // Freeze the model's serving state: eval statistics, MC sampling on, and
  // one mask-stream slot per stochastic layer (inverted norms first — their
  // slot must equal their inverted_norm_layers() index so the session
  // reproduces the streams the legacy helpers seeded).
  model_.set_training(false);
  model_.set_mc_mode(true);
  inverted_ = model_.inverted_norm_layers();
  dropouts_ = model_.dropout_layers();
  spatial_ = model_.spatial_dropout_layers();
  int slot = 0;
  for (auto* l : inverted_) l->set_stream_slot(slot++);
  for (auto* l : dropouts_) l->set_stream_slot(slot++);
  for (auto* l : spatial_) l->set_stream_slot(slot++);
  // The activation-noise hook gets the last slot: noisy passes then draw
  // from the per-request stream context instead of the shared generator,
  // so they serve concurrently and deterministically like everything else.
  if (model_.noise() != nullptr) model_.noise()->stream_slot = slot++;
  stream_slots_ = static_cast<size_t>(slot);
  plans_ = std::make_unique<PlanCache>();
}

InferenceSession::~InferenceSession() {
  for (auto* l : inverted_) l->set_stream_slot(-1);
  for (auto* l : dropouts_) l->set_stream_slot(-1);
  for (auto* l : spatial_) l->set_stream_slot(-1);
  if (model_.noise() != nullptr) model_.noise()->stream_slot = -1;
  model_.set_mc_mode(false);
}

Tensor InferenceSession::forward_cached(const Tensor& x) const {
  // Route this pass's dense compute (linear / lowered conv) through the
  // session's execution backend, if one is installed (kCrossbar). The
  // backend shares the pack cache's record→freeze lifecycle below.
  deploy::ExecBackendScope backend_scope(backend_.get());
  // Weight packs are only cacheable once the model is deployed: before
  // deploy(), weight transforms (binarization / fake quantization) emit a
  // freshly allocated tensor per forward, so a pointer key could alias a
  // dead allocation. Deployed models hand stable parameter storage to the
  // GEMM, which is exactly what the cache keys on.
  if (!model_.deployed()) return model_.predict(x);
  {
    // Fast path: frozen cache, shared lock — concurrent with every other
    // predict, excluded only against invalidate/warm-up which hold the
    // lock exclusively (so clear() can never race an in-flight lookup).
    std::shared_lock<std::shared_mutex> lock(cache_mutex_);
    if (pack_cache_.frozen()) {
      PackCacheScope cache_scope(&pack_cache_);
      return model_.predict(x);
    }
  }
  // Warm-up: one pass records every conv weight packing, then the cache
  // freezes and later calls take the shared path above. Threads that lost
  // the warm-up race find the cache frozen once they get the lock and drop
  // back to the concurrent path instead of serializing their forwards.
  std::unique_lock<std::shared_mutex> lock(cache_mutex_);
  if (pack_cache_.frozen()) {
    lock.unlock();
    std::shared_lock<std::shared_mutex> shared(cache_mutex_);
    PackCacheScope cache_scope(&pack_cache_);
    return model_.predict(x);
  }
  PackCacheScope cache_scope(&pack_cache_);
  Tensor y = model_.predict(x);
  pack_cache_.freeze();
  if (backend_ != nullptr) backend_->freeze();
  return y;
}

double InferenceSession::modeled_analog_us_per_row() const {
  return backend_ != nullptr ? backend_->modeled_analog_us_per_row() : 0.0;
}

void InferenceSession::invalidate_packed_weights() const {
  // Plans bake weight-derived constants (folded steps, fused epilogues),
  // so in-place weight mutation invalidates them with the packed panels.
  // In-flight executes keep their entry alive via shared_ptr and finish on
  // the old weights — the same torn-read caveat as the graph path.
  plans_->clear();
  std::unique_lock<std::shared_mutex> lock(cache_mutex_);
  pack_cache_.clear();
  // The backend's per-layer state (programmed crossbars) is keyed the same
  // way and goes just as stale on in-place mutation: re-record it too.
  if (backend_ != nullptr) backend_->invalidate();
}

Tensor InferenceSession::run_chunk(const Tensor& xc,
                                   int64_t chunk_offset) const {
  const int64_t t = samples_;
  if (options_.policy == ExecutionPolicy::kSerial && t > 1) {
    core::McStreamContext ctx(options_.seed, /*replicas=*/1,
                              /*replica_offset=*/0, stream_slots_);
    ctx.set_chunk_offset(chunk_offset);
    Tensor stacked;
    int64_t block = 0;
    for (int64_t r = 0; r < t; ++r) {
      ctx.rewind(r);
      core::McStreamScope scope(ctx);
      Tensor y = forward_cached(xc);
      if (!stacked.defined()) {
        Shape shape = y.shape();
        shape[0] *= t;
        stacked = Tensor::empty(shape);
        block = y.numel();
      }
      std::memcpy(stacked.data() + r * block, y.data(),
                  sizeof(float) * static_cast<size_t>(block));
    }
    return stacked;
  }
  // Per-chunk execute spans attach to the request being traced on this
  // thread (serve/trace.h): detail 1 = served from a compiled plan, 0 =
  // graph path. Tracing off costs one thread-local read per chunk.
  trace::TraceData* req = trace::active_request();
  if (options_.compile && model_.deployed()) {
    Tensor out;
    if (req != nullptr) {
      const auto exec_start = std::chrono::steady_clock::now();
      if (run_chunk_planned(xc, chunk_offset, &out)) {
        trace::Tracer::instance().record_span(
            req, trace::Stage::kExecute, exec_start,
            std::chrono::steady_clock::now(), /*detail=*/1);
        return out;
      }
    } else if (run_chunk_planned(xc, chunk_offset, &out)) {
      return out;
    }
  }
  if (req != nullptr) {
    const auto exec_start = std::chrono::steady_clock::now();
    Tensor y = run_chunk_graph(xc, chunk_offset);
    trace::Tracer::instance().record_span(req, trace::Stage::kExecute,
                                          exec_start,
                                          std::chrono::steady_clock::now(),
                                          /*detail=*/0);
    return y;
  }
  return run_chunk_graph(xc, chunk_offset);
}

Tensor InferenceSession::run_chunk_graph(const Tensor& xc,
                                         int64_t chunk_offset) const {
  const int64_t t = samples_;
  core::McStreamContext ctx(options_.seed, t, /*replica_offset=*/0,
                            stream_slots_);
  ctx.set_chunk_offset(chunk_offset);
  core::McStreamScope scope(ctx);
  if (deploy::TraceRecorder* tr = deploy::active_trace()) {
    // Tracing records the eager stacked-input graph; the plan compiler
    // performs its own stem-rows reduction (mark_replication).
    Tensor stacked =
        t > 1 ? fault::replicate_batch(xc, static_cast<int>(t)) : xc;
    tr->set_input(stacked);
    return forward_cached(stacked);
  }
  if (t > 1) {
    // Lazy stem replication: enter the model at the unreplicated n rows —
    // the deterministic stem computes each distinct row once instead of T
    // times; the first stochastic consumer expands to T·n rows
    // (core/lazy_stem.h). Bit-identical to eager replication because stem
    // tensors are replica-uniform by construction.
    ctx.set_lazy_stem_rows(xc.dim(0));
    Tensor y = forward_cached(xc);
    if (y.dim(0) == xc.dim(0)) {
      // Fully deterministic pass: no consumer replicated, so the T
      // replicas are the stem output verbatim.
      return fault::replicate_batch(y, static_cast<int>(t));
    }
    return y;
  }
  return forward_cached(xc);
}

uint64_t InferenceSession::noise_fingerprint() const {
  const nn::ActivationNoiseConfig* cfg = model_.noise().get();
  if (cfg == nullptr || !cfg->enabled) return 1;
  const auto mix = [](uint64_t h, uint64_t v) {
    return (h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2)));
  };
  const auto bits = [](float f) {
    uint32_t u = 0;
    std::memcpy(&u, &f, sizeof(u));
    return static_cast<uint64_t>(u);
  };
  uint64_t h = 2;
  h = mix(h, bits(cfg->additive_std));
  h = mix(h, bits(cfg->multiplicative_std));
  h = mix(h, bits(cfg->uniform_range));
  h = mix(h, static_cast<uint64_t>(cfg->stream_slot));
  h = mix(h, cfg->stream_salt);
  return h;
}

namespace {

/// Acquires a pooled context for `plan`, making a fresh one when the pool
/// is dry (transient: only while concurrency exceeds the pool size).
std::unique_ptr<PlanPooled> acquire_pooled(
    PlanCacheEntry& e,
    const std::shared_ptr<const deploy::ExecutionPlan>& plan) {
  std::unique_ptr<PlanPooled> pooled;
  {
    std::lock_guard<std::mutex> lg(e.pool_mutex);
    if (!e.pool.empty()) {
      pooled = std::move(e.pool.back());
      e.pool.pop_back();
    }
  }
  if (pooled == nullptr) {
    pooled = std::make_unique<PlanPooled>();
    pooled->ctx = plan->make_context();
    pooled->plan = plan.get();
  }
  return pooled;
}

void release_pooled(PlanCacheEntry& e, std::unique_ptr<PlanPooled> pooled) {
  std::lock_guard<std::mutex> lg(e.pool_mutex);
  // Discard contexts from a plan the entry has since been rebuilt away
  // from; their arenas are sized for the old plan.
  if (pooled->plan == e.plan.get()) e.pool.push_back(std::move(pooled));
}

}  // namespace

template <typename Use>
bool InferenceSession::execute_plan(PlanCacheEntry& e, const Tensor& xc,
                                    Use&& use) const {
  std::shared_ptr<const deploy::ExecutionPlan> plan;
  {
    std::lock_guard<std::mutex> lg(e.pool_mutex);
    plan = e.plan;
  }
  if (plan == nullptr) return false;
  auto pooled = acquire_pooled(e, plan);
  bool ok = false;
  {
    deploy::ExecBackendScope backend_scope(backend_.get());
    std::shared_lock<std::shared_mutex> lock(cache_mutex_);
    // Invalidated mid-flight: the graph path re-warms the cache first.
    if (pack_cache_.frozen()) {
      PackCacheScope cache_scope(&pack_cache_);
      use(plan->execute(xc, *pooled->ctx), pooled->scratch);
      ok = true;
    }
  }
  release_pooled(e, std::move(pooled));
  return ok;
}

bool InferenceSession::run_chunk_planned(const Tensor& xc,
                                         int64_t chunk_offset,
                                         Tensor* out) const {
  PlanCache::EntryPtr e = plans_->find_or_create(xc.shape(), chunk_offset);
  if (e == nullptr) return false;
  const uint64_t fp = noise_fingerprint();
  const auto execute = [&] {
    return execute_plan(*e, xc, [out](const Tensor& y, Tensor& /*scratch*/) {
      *out = y.clone();
    });
  };

  int st = e->state.load(std::memory_order_acquire);
  if (st == PlanCacheEntry::kReady && e->fingerprint == fp) return execute();
  if (st == PlanCacheEntry::kFailed && e->fingerprint == fp) return false;

  // Unbuilt, or compiled under a different noise config: (re)compile.
  // Only one thread builds; the rest serve this request from the graph.
  std::unique_lock<std::mutex> build(e->build_mutex, std::try_to_lock);
  if (!build.owns_lock()) return false;
  st = e->state.load(std::memory_order_acquire);
  if (!(st != PlanCacheEntry::kBuilding && e->fingerprint == fp)) {
    Tensor verified;
    compile_entry(*e, xc, chunk_offset, fp, &verified);
    if (verified.defined()) {
      *out = std::move(verified);
      return true;
    }
  }
  build.unlock();
  if (e->state.load(std::memory_order_acquire) == PlanCacheEntry::kReady &&
      e->fingerprint == fp)
    return execute();
  return false;
}

void InferenceSession::compile_entry(PlanCacheEntry& e, const Tensor& xc,
                                     int64_t chunk_offset,
                                     uint64_t fingerprint,
                                     Tensor* verified) const {
  const auto fail = [&](std::string why) {
    std::lock_guard<std::mutex> lg(e.pool_mutex);
    e.plan.reset();
    e.pool.clear();
    e.fallback_reason = std::move(why);
    e.fingerprint = fingerprint;
    e.state.store(PlanCacheEntry::kFailed, std::memory_order_release);
  };

  // Trace one graph forward inside the exact serving environment. The
  // recorder retains every tensor, so operand identity is unambiguous.
  deploy::TraceRecorder rec;
  Tensor traced;
  {
    deploy::TraceScope scope(rec);
    traced = run_chunk_graph(xc, chunk_offset);
  }
  if (rec.aborted()) return fail("trace aborted: " + rec.abort_reason());
  if (!rec.input().defined()) return fail("trace captured no input");

  std::string err;
  std::shared_ptr<const deploy::ExecutionPlan> plan = deploy::compile_trace(
      std::move(rec.steps()), rec.input(), samples_, &err);
  if (plan == nullptr) return fail(err);

  // Verify bit-exactness against the graph oracle before installing: on
  // the traced input, and on a perturbed input through a fresh graph run
  // (catches any input-dependent value wrongly baked as a constant).
  std::unique_ptr<deploy::PlanContext> ctx = plan->make_context();
  const auto run_plan = [&](const Tensor& x) -> Tensor {
    deploy::ExecBackendScope backend_scope(backend_.get());
    std::shared_lock<std::shared_mutex> lock(cache_mutex_);
    if (!pack_cache_.frozen()) return Tensor();
    PackCacheScope cache_scope(&pack_cache_);
    return plan->execute(x, *ctx).clone();
  };
  const auto bit_equal = [](const Tensor& a, const Tensor& b) {
    return a.defined() && b.defined() && a.numel() == b.numel() &&
           std::memcmp(a.data(), b.data(),
                       sizeof(float) * static_cast<size_t>(a.numel())) == 0;
  };
  Tensor planned = run_plan(xc);
  if (!bit_equal(planned, traced))
    return fail("verification failed: plan diverges from graph on traced "
                "input");
  Tensor xp = xc.clone();
  float* pp = xp.data();
  for (int64_t i = 0; i < xp.numel(); ++i)
    pp[i] += 0.0078125f * static_cast<float>(1 + (i % 5));
  if (!bit_equal(run_plan(xp), run_chunk_graph(xp, chunk_offset)))
    return fail("verification failed: plan diverges from graph on perturbed "
                "input");

  std::lock_guard<std::mutex> lg(e.pool_mutex);
  e.plan = std::move(plan);
  e.pool.clear();
  auto pooled = std::make_unique<PlanPooled>();
  pooled->ctx = std::move(ctx);
  pooled->plan = e.plan.get();
  e.pool.push_back(std::move(pooled));
  e.fallback_reason.clear();
  e.fingerprint = fingerprint;
  e.state.store(PlanCacheEntry::kReady, std::memory_order_release);
  *verified = std::move(planned);
}

Tensor InferenceSession::mc_outputs(const Tensor& x) const {
  RIPPLE_CHECK(x.rank() >= 1 && x.dim(0) >= 1)
      << "predict needs a batched input, got shape "
      << shape_to_string(x.shape());
  const int64_t n = x.dim(0);
  const int64_t t = samples_;
  requests_.fetch_add(1, std::memory_order_relaxed);
  rows_.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
  if (n <= chunk_rows_) return run_chunk(x, /*chunk_offset=*/0);

  // Split oversized requests into chunks and reassemble replica-major.
  // For the proposed variant this is indistinguishable from one giant pass
  // (its affine masks derive from (seed, slot, invocation) and are
  // row-independent); row-dependent MC-Dropout masks fold the chunk offset
  // into their sub-streams instead, so chunks draw fresh — never repeated —
  // masks and the result is a different but equally valid MC draw.
  Tensor out;
  int64_t row_numel = 0;
  for (int64_t c0 = 0; c0 < n; c0 += chunk_rows_) {
    const int64_t cn = std::min(chunk_rows_, n - c0);
    Tensor yc = run_chunk(data::slice_rows(x, c0, cn), /*chunk_offset=*/c0);
    if (!out.defined()) {
      Shape shape = yc.shape();
      shape[0] = t * n;
      out = Tensor::empty(shape);
      row_numel = yc.numel() / (t * cn);
    }
    for (int64_t r = 0; r < t; ++r)
      std::memcpy(out.data() + (r * n + c0) * row_numel,
                  yc.data() + r * cn * row_numel,
                  sizeof(float) * static_cast<size_t>(cn * row_numel));
  }
  return out;
}

void InferenceSession::predict_into(const Tensor& x, Prediction& out) const {
  RIPPLE_CHECK(x.rank() >= 1 && x.dim(0) >= 1)
      << "predict needs a batched input, got shape "
      << shape_to_string(x.shape());
  const int64_t n = x.dim(0);
  if (options_.compile && model_.deployed() && n <= chunk_rows_ &&
      !(options_.policy == ExecutionPolicy::kSerial && samples_ > 1)) {
    PlanCache::EntryPtr e = plans_->find(x.shape(), /*chunk_offset=*/0);
    if (e != nullptr &&
        e->state.load(std::memory_order_acquire) == PlanCacheEntry::kReady &&
        e->fingerprint == noise_fingerprint()) {
      // Traced requests get a per-request execute span (detail 1 = plan
      // path); untraced steady state pays one thread-local read.
      trace::TraceData* req = trace::active_request();
      std::chrono::steady_clock::time_point exec_start;
      if (req != nullptr) exec_start = std::chrono::steady_clock::now();
      const bool served = execute_plan(
          *e, x, [&](const Tensor& stacked, Tensor& scratch) {
            aggregate_into(options_.task, stacked, samples_, scratch, out);
          });
      if (served) {
        if (req != nullptr) {
          trace::Tracer::instance().record_span(
              req, trace::Stage::kExecute, exec_start,
              std::chrono::steady_clock::now(), /*detail=*/1);
        }
        requests_.fetch_add(1, std::memory_order_relaxed);
        rows_.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
        return;
      }
    }
  }
  // No verified plan for this shape yet: aggregate the stacked outputs of
  // the chunked path, which also compiles a plan for next time.
  Tensor scratch;
  aggregate_into(options_.task, mc_outputs(x), samples_, scratch, out);
}

PlanInfo InferenceSession::plan_info(const Shape& input_shape,
                                     int64_t chunk_offset) const {
  PlanInfo info;
  PlanCache::EntryPtr e = plans_->find(input_shape, chunk_offset);
  if (e == nullptr) {
    if (!options_.compile)
      info.fallback_reason = "compilation disabled (SessionOptions::compile)";
    return info;
  }
  std::lock_guard<std::mutex> lg(e->pool_mutex);
  if (e->state.load(std::memory_order_acquire) == PlanCacheEntry::kReady &&
      e->plan != nullptr) {
    info.compiled = true;
    info.stats = e->plan->stats();
    info.op_profile = e->plan->op_profile();
  } else {
    info.fallback_reason = e->fallback_reason.empty()
                               ? "plan not compiled yet"
                               : e->fallback_reason;
  }
  return info;
}

std::vector<deploy::PlanOpProfile> InferenceSession::plan_op_profiles() const {
  // Aggregate by op tag across every ready plan: a session may hold one
  // plan per (shape, chunk offset) and the metrics view wants the total
  // time attributed to each fused op kind, not per-step rows.
  std::vector<deploy::PlanOpProfile> agg;
  std::shared_lock<std::shared_mutex> lock(plans_->mutex);
  for (const PlanCache::EntryPtr& e : plans_->entries) {
    std::lock_guard<std::mutex> lg(e->pool_mutex);
    if (e->state.load(std::memory_order_acquire) != PlanCacheEntry::kReady ||
        e->plan == nullptr) {
      continue;
    }
    for (const deploy::PlanOpProfile& op : e->plan->op_profile()) {
      if (op.calls == 0) continue;
      auto it = std::find_if(agg.begin(), agg.end(),
                             [&](const deploy::PlanOpProfile& a) {
                               return a.tag == op.tag;
                             });
      if (it == agg.end()) {
        deploy::PlanOpProfile row = op;
        row.step = -1;  // aggregated across steps and plans
        agg.push_back(row);
      } else {
        it->calls += op.calls;
        it->total_ns += op.total_ns;
      }
    }
  }
  return agg;
}

PlanInfo InferenceSession::precompile(const Shape& input_shape) const {
  RIPPLE_CHECK(!input_shape.empty() && input_shape[0] >= 1)
      << "precompile needs a batched input shape";
  PlanInfo info;
  if (!options_.compile) {
    info.fallback_reason = "compilation disabled (SessionOptions::compile)";
    return info;
  }
  if (options_.policy == ExecutionPolicy::kSerial && samples_ > 1) {
    info.fallback_reason = "serial execution policy serves from the graph";
    return info;
  }
  if (!model_.deployed()) {
    info.fallback_reason = "model not deployed (unstable weight storage)";
    return info;
  }
  RIPPLE_CHECK(input_shape[0] <= chunk_rows_)
      << "precompile batch " << input_shape[0] << " exceeds the chunk size "
      << chunk_rows_ << "; requests that large are split into chunks";
  // Deterministic non-degenerate ramp input: compilation verifies the plan
  // on this input and a perturbation of it before installing.
  Tensor x = Tensor::empty(input_shape);
  float* p = x.data();
  for (int64_t i = 0; i < x.numel(); ++i)
    p[i] = 0.0625f * static_cast<float>((i % 23) - 11);
  (void)run_chunk(x, /*chunk_offset=*/0);
  return plan_info(input_shape, /*chunk_offset=*/0);
}

Prediction InferenceSession::predict(const Tensor& x) const {
  Prediction out;
  predict_into(x, out);
  return out;
}

Classification InferenceSession::classify(const Tensor& x) const {
  RIPPLE_CHECK(options_.task == TaskKind::kClassification)
      << "classify() on a " << task_kind_name(options_.task) << " session";
  return std::get<Classification>(predict(x));
}

Regression InferenceSession::regress(const Tensor& x) const {
  RIPPLE_CHECK(options_.task == TaskKind::kRegression)
      << "regress() on a " << task_kind_name(options_.task) << " session";
  return std::get<Regression>(predict(x));
}

Segmentation InferenceSession::segment(const Tensor& x) const {
  RIPPLE_CHECK(options_.task == TaskKind::kSegmentation)
      << "segment() on a " << task_kind_name(options_.task) << " session";
  return std::get<Segmentation>(predict(x));
}

namespace {

/// Per-request views of one aggregated result (rows [begin, begin+count)).
Prediction slice_prediction(const Prediction& agg, int64_t begin,
                            int64_t count) {
  if (const auto* c = std::get_if<Classification>(&agg)) {
    Classification out;
    out.samples = c->samples;
    out.mean_probs = data::slice_rows(c->mean_probs, begin, count);
    out.variance = data::slice_rows(c->variance, begin, count);
    out.entropy = data::slice_rows(c->entropy, begin, count);
    out.predictions.assign(c->predictions.begin() + begin,
                           c->predictions.begin() + begin + count);
    return out;
  }
  if (const auto* r = std::get_if<Regression>(&agg)) {
    Regression out;
    out.samples = r->samples;
    out.mean = data::slice_rows(r->mean, begin, count);
    out.stddev = data::slice_rows(r->stddev, begin, count);
    return out;
  }
  const auto& s = std::get<Segmentation>(agg);
  Segmentation out;
  out.samples = s.samples;
  out.mean_probs = data::slice_rows(s.mean_probs, begin, count);
  return out;
}

}  // namespace

std::vector<Prediction> InferenceSession::predict_many(
    const std::vector<Tensor>& requests) const {
  std::vector<Prediction> out;
  if (requests.empty()) return out;
  if (requests.size() == 1) {
    out.push_back(predict(requests.front()));
    return out;
  }

  // Coalesce: all requests must share the per-row shape.
  const Shape& ref = requests.front().shape();
  int64_t total = 0;
  for (const Tensor& r : requests) {
    RIPPLE_CHECK(r.rank() == requests.front().rank() && r.dim(0) >= 1)
        << "predict_many: request shape " << shape_to_string(r.shape())
        << " incompatible with " << shape_to_string(ref);
    for (int d = 1; d < r.rank(); ++d)
      RIPPLE_CHECK(r.dim(d) == ref[static_cast<size_t>(d)])
          << "predict_many: request shape " << shape_to_string(r.shape())
          << " incompatible with " << shape_to_string(ref);
    total += r.dim(0);
  }
  Shape shape = ref;
  shape[0] = total;
  Tensor all = Tensor::empty(shape);
  int64_t row = 1;
  for (size_t d = 1; d < ref.size(); ++d) row *= ref[d];
  int64_t at = 0;
  for (const Tensor& r : requests) {
    std::memcpy(all.data() + at * row, r.data(),
                sizeof(float) * static_cast<size_t>(r.numel()));
    at += r.dim(0);
  }

  // One aggregated pass (mc_outputs counts it as one request; credit the
  // coalesced ones), then split back per request.
  requests_.fetch_add(requests.size() - 1, std::memory_order_relaxed);
  const Prediction agg = predict(all);
  int64_t begin = 0;
  out.reserve(requests.size());
  for (const Tensor& r : requests) {
    out.push_back(slice_prediction(agg, begin, r.dim(0)));
    begin += r.dim(0);
  }
  return out;
}

}  // namespace ripple::serve
