// Monte-Carlo inference throughput (google-benchmark): the serial T-pass
// loop vs the batched forward that folds the T samples into the batch
// dimension (fault/mc_batch.h). Each benchmark serves from one long-lived
// serve::InferenceSession built (and warmed) outside the timed loop, so
// the rows time the forward, not session setup or weight packing.
// `compile` selects compiled plans (1) or the graph path (0); the serial
// policy always serves from the graph, so its rows run at compile 0 only.
// items/sec counts stochastic samples (T × batch) per wall-clock second —
// the serving cost of one uncertainty estimate is T samples, so this ratio
// is the speedup of the paper's inference path. scripts/bench.sh captures
// the JSON as BENCH_mc.json.
#include <benchmark/benchmark.h>

#include "models/lstm_forecaster.h"
#include "models/m5.h"
#include "models/resnet.h"
#include "serve/session.h"
#include "tensor/random.h"

using namespace ripple;

namespace {

constexpr uint64_t kSeed = 0xABCD;

models::BinaryResNet::Topology resnet_topo() {
  return {.in_channels = 3, .classes = 10, .width = 12};
}

models::VariantConfig proposed() {
  return {.variant = models::Variant::kProposed};
}

serve::SessionOptions mc_options(const benchmark::State& state,
                                 serve::ExecutionPolicy policy) {
  return {.mc_samples = static_cast<int>(state.range(0)),
          .seed = kSeed,
          .policy = policy,
          .compile = state.range(1) != 0};
}

/// Times session.mc_outputs(x) — the stacked [T·N, ...] outputs before
/// aggregation — on a deployed eval-mode model.
void run_mc_outputs(benchmark::State& state, models::TaskModel& model,
                    const Tensor& x, serve::ExecutionPolicy policy) {
  model.set_training(false);
  model.deploy();
  const serve::InferenceSession session(model, mc_options(state, policy));
  (void)session.mc_outputs(x);  // warm the pack cache, compile the plan
  for (auto _ : state) {
    Tensor y = session.mc_outputs(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * session.samples() * x.dim(0));
}

void serial_args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"t", "compile"});
  for (int t : {4, 8, 16}) b->Args({t, 0});
}

void batched_args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"t", "compile"});
  for (int t : {4, 8, 16})
    for (int compile : {0, 1}) b->Args({t, compile});
}

void BM_McResNetSerial(benchmark::State& state) {
  models::BinaryResNet model(resnet_topo(), proposed());
  Rng rng(1);
  run_mc_outputs(state, model, Tensor::randn({1, 3, 16, 16}, rng),
                 serve::ExecutionPolicy::kSerial);
}
BENCHMARK(BM_McResNetSerial)->Apply(serial_args);

void BM_McResNetBatched(benchmark::State& state) {
  models::BinaryResNet model(resnet_topo(), proposed());
  Rng rng(1);
  run_mc_outputs(state, model, Tensor::randn({1, 3, 16, 16}, rng),
                 serve::ExecutionPolicy::kBatched);
}
BENCHMARK(BM_McResNetBatched)->Apply(batched_args);

void BM_McM5Serial(benchmark::State& state) {
  models::M5 model({.classes = 8, .width = 12, .input_length = 512},
                   proposed());
  Rng rng(2);
  run_mc_outputs(state, model, Tensor::randn({1, 1, 512}, rng),
                 serve::ExecutionPolicy::kSerial);
}
BENCHMARK(BM_McM5Serial)->ArgNames({"t", "compile"})->Args({8, 0});

void BM_McM5Batched(benchmark::State& state) {
  models::M5 model({.classes = 8, .width = 12, .input_length = 512},
                   proposed());
  Rng rng(2);
  run_mc_outputs(state, model, Tensor::randn({1, 1, 512}, rng),
                 serve::ExecutionPolicy::kBatched);
}
BENCHMARK(BM_McM5Batched)
    ->ArgNames({"t", "compile"})
    ->Args({8, 0})
    ->Args({8, 1});

// The recurrent forecaster: dozens of tiny per-timestep ops, so the
// per-pass overhead dominates and batching pays off the most.
void BM_McLstmSerial(benchmark::State& state) {
  models::LstmForecaster model({.hidden = 24, .window = 24}, proposed());
  Rng rng(4);
  run_mc_outputs(state, model, Tensor::randn({1, 24, 1}, rng),
                 serve::ExecutionPolicy::kSerial);
}
BENCHMARK(BM_McLstmSerial)->Apply(serial_args);

void BM_McLstmBatched(benchmark::State& state) {
  models::LstmForecaster model({.hidden = 24, .window = 24}, proposed());
  Rng rng(4);
  run_mc_outputs(state, model, Tensor::randn({1, 24, 1}, rng),
                 serve::ExecutionPolicy::kBatched);
}
BENCHMARK(BM_McLstmBatched)->Apply(batched_args);

void BM_ProbsMcBatched(benchmark::State& state) {
  // End-to-end classifier uncertainty estimate (softmax + replica moments).
  models::BinaryResNet model(resnet_topo(), proposed());
  model.set_training(false);
  model.deploy();
  const serve::InferenceSession session(
      model, mc_options(state, serve::ExecutionPolicy::kBatched));
  Rng rng(3);
  const Tensor x = Tensor::randn({4, 3, 16, 16}, rng);
  (void)session.classify(x);  // warm the pack cache, compile the plan
  for (auto _ : state) {
    serve::Classification mc = session.classify(x);
    benchmark::DoNotOptimize(mc.mean_probs.data());
  }
  state.SetItemsProcessed(state.iterations() * session.samples() * x.dim(0));
}
BENCHMARK(BM_ProbsMcBatched)
    ->ArgNames({"t", "compile"})
    ->Args({8, 0})
    ->Args({8, 1});

}  // namespace

BENCHMARK_MAIN();
