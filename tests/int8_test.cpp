// quant::int8 + deploy::Int8Backend — the kQuantInt8 execution substrate:
// scalar/AVX2/VNNI kernel bit-exactness on remainder shapes in both
// lowering orientations, the requantize epilogue against a naive oracle
// (including fused ReLU and the per-replica stochastic affine), dynamic
// activation quantization bounds, Int8Tensor code/fp32 round-trips, and
// end-to-end kQuantInt8 sessions: agreement with kQuantSim on all four
// zoo models, the invalidate→rebuild lifecycle (pristine and after bit
// flips), compiled-plan interop, and the 8-thread serving hammer (CI runs
// this under ThreadSanitizer).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "deploy/deploy.h"
#include "fault/injector.h"
#include "models/lstm_forecaster.h"
#include "models/m5.h"
#include "models/resnet.h"
#include "models/unet.h"
#include "quant/int8/int8_gemm.h"
#include "quant/int8/int8_tensor.h"
#include "quant/quantizer.h"
#include "serve/session.h"
#include "tensor/random.h"
#include "tensor/threadpool.h"

namespace ripple {
namespace {

namespace qi = quant::int8;
using deploy::Backend;
using deploy::DeployOptions;
using deploy::Int8Backend;
using serve::InferenceSession;
using serve::SessionOptions;
using serve::TaskKind;

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

SessionOptions options_for(TaskKind task, int samples = 4,
                           uint64_t seed = 17) {
  SessionOptions opts;
  opts.task = task;
  opts.mc_samples = samples;
  opts.seed = seed;
  return opts;
}

void expect_bit_equal(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           sizeof(float) * static_cast<size_t>(a.numel())))
      << what;
}

/// Restores the process-wide kernel choice on scope exit, so a kernel
/// parity test can't leak kScalar into later tests.
struct KernelGuard {
  ~KernelGuard() { qi::set_int8_backend(qi::Int8Backend::kAuto); }
};

/// Naive re-implementation of int8_gemm's contract, mirroring the
/// requantize epilogue's arithmetic order exactly (see int8_gemm.cpp):
/// exact int32 accumulation over u8×s8, zero-point correction in int64,
/// one fp32 scale product, bias, ReLU, then the per-replica γ/β as two
/// separate rounding steps.
void oracle_gemm(qi::RowsAre mode, const uint8_t* rows, int64_t m, int64_t k,
                 const int8_t* panels, int64_t n, const qi::Int8Epilogue& ep,
                 float* c) {
  const int64_t k4 = qi::padded_k(k);
  const int64_t pb = qi::panel_bytes(k);
  const int64_t rows_per_rep =
      ep.replicas > 0 ? std::max<int64_t>(1, m / ep.replicas) : m;
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      const int8_t* panel = panels + (j / qi::kNR) * pb;
      const int64_t jj = j % qi::kNR;
      int32_t acc = 0;
      for (int64_t kk = 0; kk < k4; ++kk) {
        const uint8_t rbyte = rows[i * k4 + kk];
        const int8_t pbyte =
            panel[(kk / qi::kKG) * qi::kKG * qi::kNR + jj * qi::kKG +
                  kk % qi::kKG];
        if (mode == qi::RowsAre::kU8)
          acc += int32_t(rbyte) * int32_t(pbyte);
        else
          acc += int32_t(int8_t(rbyte)) * int32_t(uint8_t(pbyte));
      }
      const int64_t corr = ep.row_zp
                               ? int64_t(ep.row_zp[i]) * ep.wsum[j]
                               : int64_t(ep.col_zp[j]) * ep.wsum[i];
      const float s = ep.weight_scale *
                      (ep.row_scale ? ep.row_scale[i] : ep.col_scale[j]);
      float v = float(int64_t(acc) - corr) * s;
      if (ep.col_bias != nullptr)
        v += ep.col_bias[j];
      else if (ep.row_bias != nullptr)
        v += ep.row_bias[i];
      if (ep.relu && !(v > 0.0f)) v = 0.0f;
      if (ep.gamma != nullptr) {
        v *= ep.gamma[(i / rows_per_rep) * n + j];
        v += ep.beta[(i / rows_per_rep) * n + j];
      }
      c[i * n + j] = v;
    }
  }
}

/// One linear-orientation problem: fp32 activations dynamically quantized
/// per row (u8) against random s8 weight panels with a per-tensor scale.
struct LinearProblem {
  int64_t m, k, n;
  std::vector<uint8_t> rows;
  std::vector<float> row_scale;
  std::vector<int32_t> row_zp;
  std::vector<int8_t> panels;
  std::vector<int32_t> wsum;
  std::vector<float> bias;
  qi::Int8Epilogue ep;

  LinearProblem(int64_t m_, int64_t k_, int64_t n_, uint64_t seed)
      : m(m_), k(k_), n(n_) {
    Rng rng(seed);
    Tensor x = Tensor::randn({m, k}, rng);
    rows.assign(static_cast<size_t>(m * qi::padded_k(k)), 0);
    row_scale.resize(static_cast<size_t>(m));
    row_zp.resize(static_cast<size_t>(m));
    qi::quantize_rows_u8(x.data(), m, k, rows.data(), row_scale.data(),
                         row_zp.data());

    std::vector<int8_t> w(static_cast<size_t>(n * k));
    for (auto& v : w)
      v = static_cast<int8_t>(static_cast<int64_t>(rng.uniform(-128.0f, 128.0f)));
    panels.assign(static_cast<size_t>(qi::packed_bytes(n, k)), 0);
    qi::pack_panels_s8(w.data(), n, k, panels.data());
    wsum.assign(static_cast<size_t>(n), 0);
    for (int64_t j = 0; j < n; ++j)
      for (int64_t kk = 0; kk < k; ++kk) wsum[j] += w[j * k + kk];
    bias.resize(static_cast<size_t>(n));
    for (auto& b : bias) b = rng.uniform(-1.0f, 1.0f);

    ep.row_scale = row_scale.data();
    ep.row_zp = row_zp.data();
    ep.weight_scale = 0.03125f;
    ep.wsum = wsum.data();
    ep.col_bias = bias.data();
  }

  Tensor run() const {
    Tensor c = Tensor::empty({m, n});
    qi::int8_gemm(qi::RowsAre::kU8, rows.data(), m, k, panels.data(), n, ep,
                  c.data(), n);
    return c;
  }

  Tensor run_oracle() const {
    Tensor c = Tensor::empty({m, n});
    oracle_gemm(qi::RowsAre::kU8, rows.data(), m, k, panels.data(), n, ep,
                c.data());
    return c;
  }
};

/// One conv-orientation problem: random s8 weight rows against an im2col
/// matrix quantized per output column in the same pass that packs it.
struct ConvProblem {
  int64_t cout, ck, l;
  std::vector<uint8_t> rows;  // s8 weight bytes, padded row-major
  std::vector<int8_t> panels;
  std::vector<float> col_scale;
  std::vector<int32_t> col_zp;
  std::vector<int32_t> wsum;
  std::vector<float> bias;
  qi::Int8Epilogue ep;

  ConvProblem(int64_t cout_, int64_t ck_, int64_t l_, uint64_t seed)
      : cout(cout_), ck(ck_), l(l_) {
    Rng rng(seed);
    const int64_t k4 = qi::padded_k(ck);
    rows.assign(static_cast<size_t>(cout * k4), 0);
    wsum.assign(static_cast<size_t>(cout), 0);
    for (int64_t i = 0; i < cout; ++i)
      for (int64_t kk = 0; kk < ck; ++kk) {
        const auto v =
            static_cast<int8_t>(static_cast<int64_t>(rng.uniform(-128.0f, 128.0f)));
        rows[static_cast<size_t>(i * k4 + kk)] = static_cast<uint8_t>(v);
        wsum[static_cast<size_t>(i)] += v;
      }

    Tensor cols = Tensor::randn({ck, l}, rng);
    panels.assign(static_cast<size_t>(qi::packed_bytes(l, ck)), 0);
    col_scale.resize(static_cast<size_t>(l));
    col_zp.resize(static_cast<size_t>(l));
    qi::quantize_pack_cols_u8(cols.data(), ck, l,
                              reinterpret_cast<uint8_t*>(panels.data()),
                              col_scale.data(), col_zp.data());
    bias.resize(static_cast<size_t>(cout));
    for (auto& b : bias) b = rng.uniform(-1.0f, 1.0f);

    ep.col_scale = col_scale.data();
    ep.col_zp = col_zp.data();
    ep.weight_scale = 0.0625f;
    ep.wsum = wsum.data();
    ep.row_bias = bias.data();
  }

  Tensor run() const {
    Tensor c = Tensor::empty({cout, l});
    qi::int8_gemm(qi::RowsAre::kS8, rows.data(), cout, ck, panels.data(), l,
                  ep, c.data(), l);
    return c;
  }

  Tensor run_oracle() const {
    Tensor c = Tensor::empty({cout, l});
    oracle_gemm(qi::RowsAre::kS8, rows.data(), cout, ck, panels.data(), l, ep,
                c.data());
    return c;
  }
};

// ---- kernels ---------------------------------------------------------------

TEST(Int8Gemm, ScalarAndSimdBitExactAcrossRemainderShapes) {
  // The cross-ISA contract: 7-bit activations keep the AVX2 pair-sums out
  // of i16 saturation, so scalar, AVX2 and VNNI produce identical int32
  // accumulators — and the shared scalar epilogue makes the fp32 outputs
  // bit-exact. Shapes hit every remainder case: partial row blocks
  // (m % kMR), partial panels (n % kNR), partial K groups (k % kKG).
  KernelGuard guard;
  const int64_t shapes[][3] = {{1, 1, 1},   {3, 7, 15},  {4, 16, 16},
                               {5, 19, 17}, {2, 33, 48}, {7, 40, 33}};
  uint64_t seed = 100;
  for (const auto& s : shapes) {
    LinearProblem lin(s[0], s[1], s[2], seed);
    ConvProblem conv(s[0], s[1], s[2], seed + 1);
    seed += 2;
    qi::set_int8_backend(qi::Int8Backend::kScalar);
    ASSERT_STREQ(qi::int8_backend_name(), "scalar");
    Tensor lin_scalar = lin.run();
    Tensor conv_scalar = conv.run();
    qi::set_int8_backend(qi::Int8Backend::kSimd);
    Tensor lin_simd = lin.run();
    Tensor conv_simd = conv.run();
    expect_bit_equal(lin_scalar, lin_simd, "linear scalar == simd");
    expect_bit_equal(conv_scalar, conv_simd, "conv scalar == simd");
  }
}

TEST(Int8Gemm, MatchesNaiveOracleBothOrientations) {
  KernelGuard guard;
  for (auto backend : {qi::Int8Backend::kScalar, qi::Int8Backend::kSimd}) {
    qi::set_int8_backend(backend);
    LinearProblem lin(5, 19, 33, 7);
    expect_bit_equal(lin.run_oracle(), lin.run(), "linear == oracle");
    ConvProblem conv(6, 27, 21, 8);
    expect_bit_equal(conv.run_oracle(), conv.run(), "conv == oracle");
  }
}

TEST(Int8Gemm, SmallServingGemmRunsInline) {
  // The gate GEMM of a 128-hidden LSTM serving 8 MC rows (k = 128, 512
  // outputs) is 2^20 integer ops, but a u8×s8 multiply-add counts a
  // quarter of an fp32 one toward ThreadPool::kMinParallelWork, so it runs
  // on the caller and opens no parallel region.
  LinearProblem lin(8, 128, 512, 9);
  ThreadPool& pool = ThreadPool::global();
  const uint64_t before = pool.regions();
  const Tensor c = lin.run();
  EXPECT_EQ(pool.regions(), before);
  expect_bit_equal(lin.run_oracle(), c, "serving gemm == oracle");
}

TEST(Int8Gemm, FusedEpilogueMatchesUnfusedAffine) {
  // The fused ReLU + per-replica γ/β epilogue must equal running the plain
  // biased GEMM and then applying the same ops as separate passes — the
  // bit-exactness deploy/plan.cpp's verification gate relies on when the
  // backend claims a fused linear+affine plan step.
  KernelGuard guard;
  const int64_t replicas = 3, rows_per_rep = 4;
  const int64_t m = replicas * rows_per_rep, k = 19, n = 17;
  LinearProblem lin(m, k, n, 42);
  Rng rng(43);
  std::vector<float> gamma(static_cast<size_t>(replicas * n));
  std::vector<float> beta(static_cast<size_t>(replicas * n));
  for (auto& g : gamma) g = rng.uniform(0.5f, 1.5f);
  for (auto& b : beta) b = rng.uniform(-0.5f, 0.5f);

  Tensor unfused = lin.run();  // bias only
  float* pu = unfused.data();
  for (int64_t i = 0; i < m; ++i) {
    float* row = pu + i * n;
    for (int64_t j = 0; j < n; ++j)
      if (!(row[j] > 0.0f)) row[j] = 0.0f;
    const float* g = gamma.data() + (i / rows_per_rep) * n;
    const float* b = beta.data() + (i / rows_per_rep) * n;
    for (int64_t j = 0; j < n; ++j) row[j] *= g[j];
    for (int64_t j = 0; j < n; ++j) row[j] += b[j];
  }

  LinearProblem fused(m, k, n, 42);  // same seed → same operands
  fused.ep.relu = true;
  fused.ep.gamma = gamma.data();
  fused.ep.beta = beta.data();
  fused.ep.replicas = replicas;
  expect_bit_equal(unfused, fused.run(), "fused == unfused epilogue");
}

TEST(Int8Gemm, DynamicRowQuantizationIsWithinHalfStep) {
  const int64_t m = 9, k = 37;
  Rng rng(11);
  Tensor x = Tensor::randn({m, k}, rng, 0.0f, 3.0f);
  const int64_t k4 = qi::padded_k(k);
  std::vector<uint8_t> q(static_cast<size_t>(m * k4));
  std::vector<float> scale(static_cast<size_t>(m));
  std::vector<int32_t> zp(static_cast<size_t>(m));
  qi::quantize_rows_u8(x.data(), m, k, q.data(), scale.data(), zp.data());
  for (int64_t i = 0; i < m; ++i) {
    ASSERT_GT(scale[i], 0.0f);
    for (int64_t kk = 0; kk < k; ++kk) {
      const auto code = int32_t(q[i * k4 + kk]);
      ASSERT_GE(code, 0);
      ASSERT_LE(code, 127);
      const float dq = float(code - zp[i]) * scale[i];
      // Half a quantization step plus fp slack from the reciprocal multiply.
      EXPECT_NEAR(dq, x.data()[i * k + kk], 0.5001f * scale[i])
          << "row " << i << " col " << kk;
    }
    for (int64_t kk = k; kk < k4; ++kk)
      EXPECT_EQ(q[i * k4 + kk], 0u) << "padding must stay zero";
  }
}

TEST(Int8Tensor, FromCodesAndFromFp32Agree) {
  // from_fp32 re-encodes grid values (code·scale) back onto the exact
  // codes — the invalidate→rebuild path must reproduce from_codes
  // bit-for-bit, including binary ±1 and fault-flipped sign patterns.
  Rng rng(19);
  for (int32_t bits : {1, 4, 8}) {
    const int64_t rows = 6, k = 13;
    const int32_t qmax = bits == 1 ? 1 : (1 << (bits - 1)) - 1;
    const float scale = 0.0421f;
    std::vector<int32_t> codes(static_cast<size_t>(rows * k));
    std::vector<float> decoded(codes.size());
    for (size_t i = 0; i < codes.size(); ++i) {
      int32_t c;
      if (bits == 1) {
        c = rng.bernoulli(0.5f) ? 1 : 0;  // low bit: 1 → +1, 0 → −1
        decoded[i] = (c & 1) ? scale : -scale;
      } else {
        // Include the sign-flip pattern −(qmax+1) a bit flip can produce.
        c = static_cast<int32_t>(rng.uniform(float(-qmax - 1), float(qmax + 1)));
        decoded[i] = float(c) * scale;
        c &= (1 << bits) - 1;  // artifact codes keep only the low bits
      }
      codes[i] = c;
    }
    for (bool conv : {false, true}) {
      const qi::Int8Tensor a =
          qi::Int8Tensor::from_codes(codes, bits, scale, rows, k, conv);
      const qi::Int8Tensor b =
          qi::Int8Tensor::from_fp32(decoded.data(), rows, k, scale, bits, conv);
      ASSERT_TRUE(a.defined());
      ASSERT_EQ(a.data.size(), b.data.size()) << "bits " << bits;
      EXPECT_EQ(0, std::memcmp(a.data.data(), b.data.data(), a.data.size()))
          << "codes vs fp32 rebuild, bits " << bits << " conv " << conv;
      ASSERT_EQ(a.wsum, b.wsum) << "bits " << bits;
    }
  }
}

TEST(Int8BackendUnit, LinearErrorStaysWithinActivationQuantBound) {
  // The backend's only approximation is the 7-bit dynamic activation
  // quantization — weights execute on their exact grid. So for one layer,
  // |int8 − exact| ≤ Σ_k |w_jk| · (half a quantization step of row i),
  // with the exact product computed in double to keep the bound honest.
  const int64_t fout = 8, fin = 32, m = 5;
  Rng rng(55);
  Tensor latent = Tensor::randn({fout, fin}, rng, 0.0f, 0.3f);
  quant::IntQuantizer qz(8);
  qz.calibrate(latent);
  Tensor w = qz.decode(qz.encode(latent), latent.shape());

  deploy::QuantRecord rec;
  rec.quantized = true;
  rec.calibration = qz.calibration();
  rec.bits = 8;
  rec.codes = qz.encode(w);
  autograd::Parameter param{"w", autograd::Variable(w), {}};
  Int8Backend backend({rec}, {{&param, &qz}});
  EXPECT_EQ(backend.servable_tensors(), 1);

  Tensor x = Tensor::randn({m, fin}, rng);
  const Tensor& wd = param.var.value();
  Tensor out = Tensor::empty({m, fout});
  ASSERT_TRUE(backend.linear(x, wd, nullptr, out));

  // Recover each row's quantization step the way the backend derives it.
  for (int64_t i = 0; i < m; ++i) {
    float lo = x.data()[i * fin], hi = lo;
    for (int64_t k = 1; k < fin; ++k) {
      lo = std::min(lo, x.data()[i * fin + k]);
      hi = std::max(hi, x.data()[i * fin + k]);
    }
    const float step = (hi - lo) / 127.0f;
    for (int64_t j = 0; j < fout; ++j) {
      double exact = 0.0, wabs = 0.0;
      for (int64_t k = 0; k < fin; ++k) {
        exact += double(x.data()[i * fin + k]) * double(wd.data()[j * fin + k]);
        wabs += std::fabs(double(wd.data()[j * fin + k]));
      }
      const double bound = 0.501 * double(step) * wabs + 1e-4;
      EXPECT_NEAR(double(out.data()[i * fout + j]), exact, bound)
          << "row " << i << " out " << j;
    }
  }
}

// ---- sessions --------------------------------------------------------------

/// Opens `path` under kQuantInt8 and asserts the backend is live: the
/// session reports the substrate, the backend packed at least one weight
/// straight from the artifact codes, and serving froze the map.
std::unique_ptr<InferenceSession> open_int8(const std::string& path,
                                            Int8Backend** backend_out) {
  auto session = InferenceSession::open(path, {.backend = Backend::kQuantInt8});
  EXPECT_EQ(session->backend(), Backend::kQuantInt8);
  auto* backend = dynamic_cast<Int8Backend*>(session->exec_backend());
  EXPECT_NE(backend, nullptr);
  if (backend != nullptr) EXPECT_GT(backend->servable_tensors(), 0);
  if (backend_out != nullptr) *backend_out = backend;
  return session;
}

/// Agreement contract vs the fp32-decoding kQuantSim oracle: int8 serving
/// adds only the activation-quantization error on top of the weight grid
/// both substrates share, so outputs must stay within `tol` of the
/// oracle's peak magnitude, and every confidently-classified row (top-1
/// margin above a fixed fraction of the row peak) must keep its label.
/// Per-model tolerances carry ~2× headroom over the measured rel L∞
/// (untrained nets, seed-pinned inputs): ResNet ≈ 0.12, M5 ≈ 0.05,
/// LSTM ≈ 0.02, UNet ≈ 0.31 (4-bit activations + deep norm stack).
void expect_close_to_quantsim(const Tensor& sim, const Tensor& i8,
                              bool classification, float tol,
                              const char* tag) {
  ASSERT_EQ(sim.shape(), i8.shape()) << tag;
  float peak = 1e-6f;
  for (int64_t i = 0; i < sim.numel(); ++i)
    peak = std::max(peak, std::fabs(sim.data()[i]));
  float worst = 0.0f;
  for (int64_t i = 0; i < sim.numel(); ++i)
    worst = std::max(worst, std::fabs(sim.data()[i] - i8.data()[i]));
  EXPECT_LE(worst, tol * peak) << tag << ": rel Linf " << worst / peak;

  if (!classification || sim.rank() != 2) return;
  const int64_t rows = sim.dim(0), classes = sim.dim(1);
  for (int64_t r = 0; r < rows; ++r) {
    const float* srow = sim.data() + r * classes;
    const float* irow = i8.data() + r * classes;
    int64_t top = 0;
    float best = srow[0], second = -HUGE_VALF, row_peak = 1e-6f;
    for (int64_t c = 0; c < classes; ++c)
      row_peak = std::max(row_peak, std::fabs(srow[c]));
    for (int64_t c = 1; c < classes; ++c) {
      if (srow[c] > best) {
        second = best;
        best = srow[c];
        top = c;
      } else {
        second = std::max(second, srow[c]);
      }
    }
    if (best - second <= 0.25f * row_peak) continue;  // not confident
    const int64_t itop = static_cast<int64_t>(
        std::max_element(irow, irow + classes) - irow);
    EXPECT_EQ(top, itop) << tag << ": confident row " << r << " relabeled";
  }
}

template <typename ModelT>
void check_model_agreement(ModelT& model, const SessionOptions& opts,
                           const Tensor& x, bool classification, float tol,
                           const char* tag) {
  model.set_training(false);
  model.deploy();
  const std::string path = temp_path(tag);
  deploy::save_artifact(model, path, opts);

  auto quantsim = InferenceSession::open(path, {.backend = Backend::kQuantSim});
  Int8Backend* backend = nullptr;
  auto int8 = open_int8(path, &backend);

  Tensor ys = quantsim->mc_outputs(x);
  Tensor yi = int8->mc_outputs(x);
  expect_close_to_quantsim(ys, yi, classification, tol, tag);
  ASSERT_NE(backend, nullptr);
  EXPECT_TRUE(backend->frozen());
  EXPECT_GT(backend->packed_tensors(), 0);
  // Deterministic serving: a second pass reproduces the first bit-for-bit.
  expect_bit_equal(yi, int8->mc_outputs(x), tag);
}

TEST(Int8Session, AgreesWithQuantSimOnResNet) {
  models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 4},
                             {.variant = models::Variant::kProposed});
  Rng rng(31);
  check_model_agreement(model, options_for(TaskKind::kClassification),
                        Tensor::randn({3, 3, 16, 16}, rng), true, 0.25f,
                        "int8_resnet.rpla");
}

TEST(Int8Session, AgreesWithQuantSimOnM5) {
  models::M5 model({.classes = 8, .width = 4, .input_length = 256},
                   {.variant = models::Variant::kProposed});
  Rng rng(32);
  check_model_agreement(model, options_for(TaskKind::kClassification),
                        Tensor::randn({2, 1, 256}, rng), true, 0.12f,
                        "int8_m5.rpla");
}

TEST(Int8Session, AgreesWithQuantSimOnLstm) {
  models::LstmForecaster model({.hidden = 8, .window = 8},
                               {.variant = models::Variant::kProposed});
  Rng rng(33);
  check_model_agreement(model, options_for(TaskKind::kRegression),
                        Tensor::randn({4, 8, 1}, rng), false, 0.08f,
                        "int8_lstm.rpla");
}

TEST(Int8Session, AgreesWithQuantSimOnUNet) {
  models::UNet model({.base_channels = 8, .activation_bits = 4},
                     {.variant = models::Variant::kSpatialSpinDrop});
  Rng rng(34);
  check_model_agreement(model, options_for(TaskKind::kSegmentation, 3),
                        Tensor::randn({2, 1, 8, 8}, rng), false, 0.6f,
                        "int8_unet.rpla");
}

TEST(Int8Session, InvalidateRebuildsBitExactFromDeployedWeights) {
  // Deployed weights sit exactly on the quantizer grid, so the
  // invalidate()→from_fp32 warm-up rebuild must reproduce the
  // codes-packed tensors — and therefore the outputs — bit-for-bit.
  models::M5 model({.classes = 8, .width = 4, .input_length = 256},
                   {.variant = models::Variant::kProposed});
  model.set_training(false);
  model.deploy();
  const std::string path = temp_path("int8_invalidate.rpla");
  deploy::save_artifact(model, path, options_for(TaskKind::kClassification));

  Int8Backend* backend = nullptr;
  auto session = open_int8(path, &backend);
  ASSERT_NE(backend, nullptr);
  Rng rng(35);
  Tensor x = Tensor::randn({2, 1, 256}, rng);
  Tensor first = session->mc_outputs(x);
  EXPECT_TRUE(backend->frozen());

  session->invalidate_packed_weights();
  EXPECT_EQ(backend->packed_tensors(), 0);
  EXPECT_FALSE(backend->frozen());
  expect_bit_equal(first, session->mc_outputs(x), "rebuilt == original");
  EXPECT_TRUE(backend->frozen());
  EXPECT_GT(backend->packed_tensors(), 0);
}

TEST(Int8Session, TracksQuantSimThroughBitFlips) {
  // A fault campaign mutates the deployed weights in place (sign-flip
  // codes included); after invalidate(), the warm-up re-encodes against
  // the frozen calibration and must keep tracking the kQuantSim session
  // mutated by the identical campaign.
  models::M5 model({.classes = 8, .width = 4, .input_length = 256},
                   {.variant = models::Variant::kProposed});
  model.set_training(false);
  model.deploy();
  const std::string path = temp_path("int8_flips.rpla");
  deploy::save_artifact(model, path, options_for(TaskKind::kClassification));

  auto quantsim = InferenceSession::open(path, {.backend = Backend::kQuantSim});
  Int8Backend* backend = nullptr;
  auto int8 = open_int8(path, &backend);
  Rng rng(36);
  Tensor x = Tensor::randn({2, 1, 256}, rng);
  Tensor pristine = int8->mc_outputs(x);

  const fault::FaultSpec spec = fault::FaultSpec::bitflips(0.02f);
  fault::FaultInjector inj_sim(quantsim->model().fault_targets());
  fault::FaultInjector inj_i8(int8->model().fault_targets());
  Rng r1(77), r2(77);  // same stream → identical flips on both models
  inj_sim.apply(spec, r1);
  inj_i8.apply(spec, r2);
  quantsim->invalidate_packed_weights();
  int8->invalidate_packed_weights();
  expect_close_to_quantsim(quantsim->mc_outputs(x), int8->mc_outputs(x),
                           true, 0.2f, "after bit flips");

  inj_sim.restore();
  inj_i8.restore();
  quantsim->invalidate_packed_weights();
  int8->invalidate_packed_weights();
  expect_bit_equal(pristine, int8->mc_outputs(x), "restore() round-trips");
}

TEST(Int8Session, CompiledPlanMatchesGraphServing) {
  // Plan interop: with compilation on (the default), the backend claims
  // the plan's linear steps — including the fused linear+affine form —
  // and the bit-exact verification gate accepts or falls back with a
  // reason. Either way the served bits must equal the graph path's.
  models::LstmForecaster model({.hidden = 8, .window = 8},
                               {.variant = models::Variant::kProposed});
  model.set_training(false);
  model.deploy();
  const std::string path = temp_path("int8_plan.rpla");
  deploy::save_artifact(model, path, options_for(TaskKind::kRegression));

  auto planned = InferenceSession::open(path, {.backend = Backend::kQuantInt8});
  DeployOptions graph_opts;
  graph_opts.backend = Backend::kQuantInt8;
  SessionOptions so = options_for(TaskKind::kRegression);
  so.compile = false;
  graph_opts.session = so;
  auto graph = InferenceSession::open(path, graph_opts);

  Rng rng(37);
  Tensor x = Tensor::randn({4, 8, 1}, rng);
  serve::PlanInfo info = planned->precompile(x.shape());
  EXPECT_TRUE(info.compiled || !info.fallback_reason.empty());
  expect_bit_equal(graph->mc_outputs(x), planned->mc_outputs(x),
                   info.compiled ? "plan == graph" : "fallback == graph");
}

TEST(Int8Session, ConcurrentPredictsAreExact) {
  // The serving contract on the integer substrate: any number of threads
  // through one frozen session, every result bit-identical to the serial
  // oracle. (CI runs this under ThreadSanitizer.)
  models::LstmForecaster model({.hidden = 8, .window = 8},
                               {.variant = models::Variant::kProposed});
  model.set_training(false);
  model.deploy();
  const std::string path = temp_path("int8_mt.rpla");
  deploy::save_artifact(model, path, options_for(TaskKind::kRegression));

  Int8Backend* backend = nullptr;
  auto session = open_int8(path, &backend);
  constexpr int kThreads = 8;
  Rng rng(38);
  std::vector<Tensor> inputs;
  for (int i = 0; i < kThreads; ++i)
    inputs.push_back(Tensor::randn({4, 8, 1}, rng));
  std::vector<Tensor> expected;
  for (int i = 0; i < kThreads; ++i)
    expected.push_back(session->mc_outputs(inputs[i]));
  ASSERT_NE(backend, nullptr);
  EXPECT_TRUE(backend->frozen());

  std::vector<Tensor> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] { got[t] = session->mc_outputs(inputs[t]); });
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t)
    expect_bit_equal(expected[t], got[t], "concurrent int8 predict");
}

}  // namespace
}  // namespace ripple
