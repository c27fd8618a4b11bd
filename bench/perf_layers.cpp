// Micro-benchmarks (google-benchmark): throughput of the hot kernels and
// the runtime overhead of the inverted normalization relative to the
// conventional layers it replaces.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "autograd/ops.h"
#include "core/inverted_norm.h"
#include "nn/conv.h"
#include "nn/norm.h"
#include "quant/int8/int8_gemm.h"
#include "tensor/gemm.h"
#include "tensor/random.h"
#include "tensor/threadpool.h"

using namespace ripple;
namespace ag = ripple::autograd;

namespace {

void BM_GemmNN(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  Tensor c({n, n});
  for (auto _ : state) {
    c.fill(0.0f);
    gemm_nn(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.SetLabel(gemm_backend_name());
}
BENCHMARK(BM_GemmNN)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmRefNN(benchmark::State& state) {
  // The pre-optimization blocked kernel — the BENCH_gemm.json baseline the
  // packed micro-kernel is measured against.
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  Tensor c({n, n});
  for (auto _ : state) {
    c.fill(0.0f);
    gemm_ref_nn(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmRefNN)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmNT(benchmark::State& state) {
  // The linear-layer forward shape (out = x · wᵀ).
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  Tensor c({n, n});
  for (auto _ : state) {
    c.fill(0.0f);
    gemm_nt(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNT)->Arg(64)->Arg(256);

void BM_GemmTN(benchmark::State& state) {
  // The gradient shapes (dW = dYᵀ·X); previously the only serial variant.
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  Tensor c({n, n});
  for (auto _ : state) {
    c.fill(0.0f);
    gemm_tn(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmTN)->Arg(64)->Arg(256);

void BM_GemmNNBiasEpilogue(benchmark::State& state) {
  // Fused bias+ReLU epilogue (conv/linear forward path).
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  Tensor bias = Tensor::randn({n}, rng);
  Tensor c({n, n});
  GemmEpilogue ep;
  ep.row_bias = bias.data();
  ep.relu = true;
  for (auto _ : state) {
    c.fill(0.0f);
    gemm_nn_ex(n, n, n, a.data(), b.data(), c.data(), ep);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNNBiasEpilogue)->Arg(256);

void BM_GemmPrepackedNN(benchmark::State& state) {
  // Conv-shaped GEMM with the weight matrix packed once outside the loop
  // (the per-batch reuse pattern of conv2d).
  const int64_t cout = 24, ck = 108, oa = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::randn({cout, ck}, rng);
  Tensor b = Tensor::randn({ck, oa}, rng);
  Tensor c({cout, oa});
  const PackedGemmA packed = pack_gemm_a(cout, ck, a.data());
  std::vector<float> scratch(
      static_cast<size_t>(gemm_nn_prepacked_scratch(oa, ck)));
  for (auto _ : state) {
    c.fill(0.0f);
    gemm_nn_prepacked(packed, oa, b.data(), oa, c.data(), oa, {},
                      scratch.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * cout * ck * oa);
}
BENCHMARK(BM_GemmPrepackedNN)->Arg(256)->Arg(2048);

// Integer serving GEMM at the same n×n shape as BM_GemmNN — the recorded
// pair is the raw arithmetic-density win of u8×s8 kernels over fp32. The
// loop includes the per-row dynamic activation quantization (the real
// serving cost); the weight side is packed once, as the Int8Backend packs
// it once per artifact.
void BM_Int8GemmVsFp32(benchmark::State& state) {
  namespace qi = quant::int8;
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor x = Tensor::randn({n, n}, rng);
  std::vector<int8_t> w(static_cast<size_t>(n * n));
  for (auto& v : w)
    v = static_cast<int8_t>(static_cast<int64_t>(rng.uniform(-128.0f, 128.0f)));
  std::vector<int8_t> panels(static_cast<size_t>(qi::packed_bytes(n, n)));
  qi::pack_panels_s8(w.data(), n, n, panels.data());
  std::vector<int32_t> wsum(static_cast<size_t>(n), 0);
  for (int64_t j = 0; j < n; ++j)
    for (int64_t k = 0; k < n; ++k) wsum[j] += w[j * n + k];

  std::vector<uint8_t> rows(static_cast<size_t>(n * qi::padded_k(n)));
  std::vector<float> row_scale(static_cast<size_t>(n));
  std::vector<int32_t> row_zp(static_cast<size_t>(n));
  Tensor c({n, n});
  qi::Int8Epilogue ep;
  ep.row_scale = row_scale.data();
  ep.row_zp = row_zp.data();
  ep.weight_scale = 0.03125f;
  ep.wsum = wsum.data();
  for (auto _ : state) {
    qi::quantize_rows_u8(x.data(), n, n, rows.data(), row_scale.data(),
                         row_zp.data());
    qi::int8_gemm(qi::RowsAre::kU8, rows.data(), n, n, panels.data(), n, ep,
                  c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.SetLabel(qi::int8_backend_name());
}
BENCHMARK(BM_Int8GemmVsFp32)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

// 3×3 conv over {channels, batch} at 16×16; {12, 256} is a stage conv of
// the fault_sweep ResNet (width 12, a 32-row chunk times T = 8 replicas).
void BM_Conv2dForward(benchmark::State& state) {
  const int64_t c = state.range(0);
  const int64_t n = state.range(1);
  Rng rng(2);
  nn::Conv2d conv(c, c, 3, 1, 1);
  Tensor x = Tensor::randn({n, c, 16, 16}, rng);
  ag::NoGradGuard no_grad;
  for (auto _ : state) {
    ag::Variable y = conv.forward(ag::Variable(x));
    benchmark::DoNotOptimize(y.value().data());
  }
}
BENCHMARK(BM_Conv2dForward)
    ->Args({8, 8})
    ->Args({16, 8})
    ->Args({32, 8})
    ->Args({12, 256});

void BM_BatchNormForward(benchmark::State& state) {
  Rng rng(3);
  nn::BatchNorm norm(16);
  norm.set_training(false);
  Tensor x = Tensor::randn({8, 16, 16, 16}, rng);
  ag::NoGradGuard no_grad;
  for (auto _ : state) {
    ag::Variable y = norm.forward(ag::Variable(x));
    benchmark::DoNotOptimize(y.value().data());
  }
}
BENCHMARK(BM_BatchNormForward);

void BM_InvertedNormForward(benchmark::State& state) {
  // The paper's layer in MC mode (mask sampling + affine + normalize) —
  // the cost delta vs BM_BatchNormForward is the method's inference
  // overhead.
  Rng rng(4);
  core::InvertedNorm::Options opts;
  opts.dropout_p = 0.3f;
  core::InvertedNorm norm(16, opts, &rng);
  norm.set_training(false);
  norm.set_mc_mode(true);
  Tensor x = Tensor::randn({8, 16, 16, 16}, rng);
  ag::NoGradGuard no_grad;
  for (auto _ : state) {
    ag::Variable y = norm.forward(ag::Variable(x));
    benchmark::DoNotOptimize(y.value().data());
  }
}
BENCHMARK(BM_InvertedNormForward);

void BM_GroupNormalize(benchmark::State& state) {
  const int64_t groups = state.range(0);
  Rng rng(5);
  Tensor x = Tensor::randn({8, 16, 16, 16}, rng);
  ag::NoGradGuard no_grad;
  for (auto _ : state) {
    ag::Variable y = ag::group_normalize(ag::Variable(x), groups);
    benchmark::DoNotOptimize(y.value().data());
  }
}
BENCHMARK(BM_GroupNormalize)->Arg(1)->Arg(4)->Arg(16);

void BM_TrainStepConv(benchmark::State& state) {
  // Forward+backward through a conv — the dominant training cost.
  Rng rng(6);
  nn::Conv2d conv(8, 8, 3, 1, 1);
  Tensor x = Tensor::randn({8, 8, 16, 16}, rng);
  for (auto _ : state) {
    conv.zero_grad();
    ag::Variable y = conv.forward(ag::Variable(x));
    ag::Variable loss = ag::mean_all(ag::mul(y, y));
    loss.backward();
    benchmark::DoNotOptimize(conv.weight().var.grad().data());
  }
}
BENCHMARK(BM_TrainStepConv);

// Calibration of ThreadPool::kMinParallelWork (docs/PERF.md "Thread
// pool"): one fork-join that wakes every worker and hands each
// participant ~4 empty chunks, against the one-core cost of a unit of
// work below.
void BM_PoolForkJoin(benchmark::State& state) {
  const int64_t participants = ThreadPool::global().size() + 1;
  for (auto _ : state) {
    parallel_for(4 * participants, ThreadPool::kMinParallelWork,
                 [](int64_t begin, int64_t end) {
                   benchmark::DoNotOptimize(begin);
                   benchmark::DoNotOptimize(end);
                 });
  }
  state.SetLabel(std::to_string(participants) + " participants");
}
BENCHMARK(BM_PoolForkJoin);

// One core's rate in the units call sites state their work in
// (items_per_second): Arg 0 is bytes moved by a plan elementwise add over
// cache-resident operands, Arg 1 the FLOPs of an inline one-block GEMM.
void BM_PoolWorkUnit(benchmark::State& state) {
  Rng rng(7);
  if (state.range(0) == 0) {
    const int64_t n = 16384;
    Tensor a = Tensor::randn({n}, rng);
    Tensor b = Tensor::randn({n}, rng);
    Tensor c({n});
    for (auto _ : state) {
      const float* pa = a.data();
      const float* pb = b.data();
      float* pc = c.data();
      for (int64_t i = 0; i < n; ++i) pc[i] = pa[i] + pb[i];
      benchmark::DoNotOptimize(pc);
    }
    state.SetItemsProcessed(state.iterations() * 3 * n *
                            int64_t{sizeof(float)});
    state.SetLabel("bytes");
  } else {
    const int64_t m = 32, n = 32, k = 128;
    Tensor a = Tensor::randn({m, k}, rng);
    Tensor b = Tensor::randn({n, k}, rng);
    Tensor c({m, n});
    for (auto _ : state) {
      gemm_nt(m, n, k, a.data(), b.data(), c.data());
      benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
    state.SetLabel("flops");
  }
}
BENCHMARK(BM_PoolWorkUnit)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
