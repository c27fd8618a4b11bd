// Zero-allocation acceptance gate for the compiled serving path: global
// operator new interposition counts every heap allocation, and a
// steady-state predict_into() through a verified plan must perform none.
// The graph path is measured alongside as a sanity check that the counter
// actually sees the serving allocations it is supposed to eliminate.
//
// Runs single-threaded (RIPPLE_THREADS=1, pinned before any pool spins
// up) so worker-thread allocations can't blur the count; the pooled
// PlanContext + result-tensor reuse is what is under test, not the pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <thread>

#include "deploy/deploy.h"
#include "models/lstm_forecaster.h"
#include "models/resnet.h"
#include "serve/session.h"
#include "serve/trace.h"
#include "tensor/random.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<long> g_allocs{0};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ripple {
namespace {

using serve::InferenceSession;
using serve::Prediction;
using serve::SessionOptions;
using serve::TaskKind;

// Pin the pool width before anything constructs it (static init runs
// before main; the pool reads the env lazily on first use).
const int kForceSingleThread = [] {
  ::setenv("RIPPLE_THREADS", "1", 1);
  return 0;
}();

SessionOptions options_for(TaskKind task, bool compile) {
  SessionOptions opts;
  opts.task = task;
  opts.mc_samples = 4;
  opts.seed = 31;
  opts.compile = compile;
  return opts;
}

/// Allocations per predict_into once warm: warm up (compile the plan,
/// size the result tensors), then count over `iters` steady-state calls.
long steady_state_allocs(const InferenceSession& session, const Tensor& x,
                         int iters = 16) {
  Prediction out;
  session.predict_into(x, out);  // compiles (or serves graph) + sizes out
  session.predict_into(x, out);  // reaches steady state
  g_allocs.store(0);
  g_counting.store(true);
  for (int i = 0; i < iters; ++i) session.predict_into(x, out);
  g_counting.store(false);
  return g_allocs.load();
}

template <typename ModelT>
long steady_state_allocs(ModelT& model, TaskKind task, const Tensor& x,
                         bool compile, int iters = 16) {
  InferenceSession session(model, options_for(task, compile));
  return steady_state_allocs(session, x, iters);
}

TEST(Alloc, CompiledLstmPredictIsAllocationFree) {
  models::LstmForecaster model({.hidden = 8, .window = 12},
                               {.variant = models::Variant::kProposed});
  model.set_training(false);
  model.deploy();
  Rng rng(1);
  Tensor x = Tensor::randn({2, 12, 1}, rng);
  EXPECT_EQ(steady_state_allocs(model, TaskKind::kRegression, x, true), 0);
}

TEST(Alloc, CompiledLstmTwoThreadsAlternatingRowsIsAllocationFree) {
  // The edge_forecast shape (hidden 8, window 24) served from two threads
  // that alternate rows 1 and 8 in lockstep, always on different shapes:
  // each plan's one pooled context, gate planes included, moves between
  // the threads, so the step scratch must be owned by the context and
  // sized when it is built. Threads spawn and warm up before counting.
  models::LstmForecaster model({.hidden = 8, .window = 24},
                               {.variant = models::Variant::kProposed});
  model.set_training(false);
  model.deploy();
  SessionOptions opts = options_for(TaskKind::kRegression, true);
  opts.mc_samples = 8;
  InferenceSession session(model, opts);
  Rng rng(7);
  const Tensor xs[2] = {Tensor::randn({1, 24, 1}, rng),
                        Tensor::randn({8, 24, 1}, rng)};
  ASSERT_TRUE(session.precompile(xs[0].shape()).compiled);
  ASSERT_TRUE(session.precompile(xs[1].shape()).compiled);

  constexpr int kWarm = 4;
  constexpr int kIters = 64;
  std::atomic<int> arrived{0};
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  // Spin barrier (no allocation): step k waits for both threads' arrival.
  const auto sync = [&](int k) {
    arrived.fetch_add(1);
    while (arrived.load() < 2 * (k + 1)) std::this_thread::yield();
  };
  const auto serve = [&](int tid) {
    Prediction outs[2];  // one result per shape, so neither is resized
    int k = 0;
    for (; k < kWarm; ++k) {
      sync(k);
      session.predict_into(xs[(k + tid) % 2], outs[(k + tid) % 2]);
    }
    ready.fetch_add(1);
    while (!go.load()) std::this_thread::yield();
    for (; k < kWarm + kIters; ++k) {
      sync(k);
      session.predict_into(xs[(k + tid) % 2], outs[(k + tid) % 2]);
    }
  };
  {
    std::jthread a(serve, 0);
    std::jthread b(serve, 1);
    while (ready.load() < 2) std::this_thread::yield();
    g_allocs.store(0);
    g_counting.store(true);
    go.store(true);
    a.join();
    b.join();
    g_counting.store(false);
  }
  EXPECT_EQ(g_allocs.load(), 0);
}

TEST(Alloc, CompiledResNetPredictIsAllocationFree) {
  models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 4},
                             {.variant = models::Variant::kProposed});
  model.set_training(false);
  model.deploy();
  Rng rng(2);
  Tensor x = Tensor::randn({2, 3, 16, 16}, rng);
  EXPECT_EQ(steady_state_allocs(model, TaskKind::kClassification, x, true),
            0);
}

TEST(Alloc, CompiledResNetArtifactPredictIsAllocationFree) {
  // The fault_sweep model shape (width 12, 16×16 images) opened from an
  // artifact on fp32 and on the tiled crossbar: the conv workspace slots
  // are sized when the plan builds its context, so steady-state convs
  // allocate nothing on either substrate.
  models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 12},
                             {.variant = models::Variant::kProposed});
  model.set_training(false);
  model.deploy();
  const std::string path = ::testing::TempDir() + "alloc_resnet.rpla";
  deploy::save_artifact(model, path,
                        options_for(TaskKind::kClassification, true));
  Rng rng(6);
  Tensor x = Tensor::randn({8, 3, 16, 16}, rng);
  for (const deploy::Backend backend :
       {deploy::Backend::kFp32, deploy::Backend::kCrossbar}) {
    deploy::DeployOptions d;
    d.backend = backend;
    // The fault_sweep substrate: 64×64 tiles of 8-bit-sliced cells behind
    // shared ADCs (the degenerate monolithic plan still allocates).
    d.crossbar.geometry = imc::TileGeometry{64, 64};
    d.crossbar.slice_bits = 8;
    d.crossbar.adc_share = 8;
    auto session = InferenceSession::open(path, d);
    ASSERT_TRUE(session->precompile(x.shape()).compiled);
    EXPECT_EQ(steady_state_allocs(*session, x), 0)
        << deploy::backend_name(backend);
  }
  std::filesystem::remove(path);
}

TEST(Alloc, TracingOffKeepsCompiledPathAllocationFree) {
  // The serve/trace.h cost contract: with tracing disabled (the default),
  // every hook on the serving path is one relaxed load + branch — the
  // steady-state zero-allocation gate must hold with the hooks compiled in.
  ASSERT_FALSE(serve::trace::Tracer::instance().enabled());
  models::LstmForecaster model({.hidden = 8, .window = 12},
                               {.variant = models::Variant::kProposed});
  model.set_training(false);
  model.deploy();
  Rng rng(4);
  Tensor x = Tensor::randn({2, 12, 1}, rng);
  EXPECT_EQ(steady_state_allocs(model, TaskKind::kRegression, x, true), 0);
}

TEST(Alloc, TracingEnabledWithoutActiveRequestStaysAllocationFree) {
  // Tracing on, but no traced request active on this thread (nothing went
  // through a batcher/server front door): the session hooks see a null
  // active_request() and must still allocate nothing. Contexts — and their
  // one allocation per request — are only born at the front doors.
  serve::trace::Tracer::instance().set_enabled(true);
  models::LstmForecaster model({.hidden = 8, .window = 12},
                               {.variant = models::Variant::kProposed});
  model.set_training(false);
  model.deploy();
  Rng rng(5);
  Tensor x = Tensor::randn({2, 12, 1}, rng);
  const long allocs =
      steady_state_allocs(model, TaskKind::kRegression, x, true);
  serve::trace::Tracer::instance().set_enabled(false);
  serve::trace::Tracer::instance().reset();
  EXPECT_EQ(allocs, 0);
}

TEST(Alloc, GraphPathAllocatesSoTheCounterIsLive) {
  // Control: the uncompiled path builds autograd nodes and fresh tensors
  // every call. If this ever reads 0 the interposition above is dead and
  // the compiled-path zeros prove nothing.
  models::LstmForecaster model({.hidden = 8, .window = 12},
                               {.variant = models::Variant::kProposed});
  model.set_training(false);
  model.deploy();
  Rng rng(3);
  Tensor x = Tensor::randn({2, 12, 1}, rng);
  EXPECT_GT(steady_state_allocs(model, TaskKind::kRegression, x, false), 0);
}

}  // namespace
}  // namespace ripple
