#include "tensor/gemm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "tensor/random.h"

namespace ripple {
namespace {

void naive_gemm(int64_t m, int64_t n, int64_t k, const float* a,
                const float* b, float* c) {
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t kk = 0; kk < k; ++kk) acc += a[i * k + kk] * b[kk * n + j];
      c[i * n + j] += static_cast<float>(acc);
    }
}

class GemmSizes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmSizes, NnMatchesNaive) {
  const auto [m, n, k] = GetParam();
  Rng rng(17);
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor c({m, n});
  Tensor ref({m, n});
  gemm_nn(m, n, k, a.data(), b.data(), c.data());
  naive_gemm(m, n, k, a.data(), b.data(), ref.data());
  for (int64_t i = 0; i < c.numel(); ++i)
    EXPECT_NEAR(c.data()[i], ref.data()[i], 1e-3f) << "at " << i;
}

TEST_P(GemmSizes, NtMatchesNaiveOnTransposedB) {
  const auto [m, n, k] = GetParam();
  Rng rng(18);
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor bt = Tensor::randn({n, k}, rng);  // B stored transposed
  Tensor c({m, n});
  gemm_nt(m, n, k, a.data(), bt.data(), c.data());
  // Reference: build B = btᵀ then naive.
  Tensor b({k, n});
  for (int64_t j = 0; j < n; ++j)
    for (int64_t kk = 0; kk < k; ++kk)
      b.data()[kk * n + j] = bt.data()[j * k + kk];
  Tensor ref({m, n});
  naive_gemm(m, n, k, a.data(), b.data(), ref.data());
  for (int64_t i = 0; i < c.numel(); ++i)
    EXPECT_NEAR(c.data()[i], ref.data()[i], 1e-3f);
}

TEST_P(GemmSizes, TnMatchesNaiveOnTransposedA) {
  const auto [m, n, k] = GetParam();
  Rng rng(19);
  Tensor at = Tensor::randn({k, m}, rng);  // A stored transposed
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor c({m, n});
  gemm_tn(m, n, k, at.data(), b.data(), c.data());
  Tensor a({m, k});
  for (int64_t i = 0; i < m; ++i)
    for (int64_t kk = 0; kk < k; ++kk)
      a.data()[i * k + kk] = at.data()[kk * m + i];
  Tensor ref({m, n});
  naive_gemm(m, n, k, a.data(), b.data(), ref.data());
  for (int64_t i = 0; i < c.numel(); ++i)
    EXPECT_NEAR(c.data()[i], ref.data()[i], 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GemmSizes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(7, 5, 9), std::make_tuple(16, 16, 16),
                      std::make_tuple(33, 17, 65),
                      std::make_tuple(64, 128, 72),
                      std::make_tuple(1, 64, 300),
                      // Micro-kernel edges: one off either side of the
                      // 6-row / 16-col / 256-k blocking boundaries.
                      std::make_tuple(3, 17, 63), std::make_tuple(5, 15, 1),
                      std::make_tuple(6, 16, 256),
                      std::make_tuple(7, 33, 257),
                      std::make_tuple(13, 31, 129),
                      std::make_tuple(65, 63, 64),
                      std::make_tuple(97, 1, 300),
                      std::make_tuple(2, 300, 520)));

TEST(GemmBackends, SimdMatchesScalarKernel) {
  // Whatever CPUID picked must agree with the portable kernel bit-for-bit
  // modulo float reassociation (FMA keeps per-element k-order, so the
  // tolerance is tight).
  Rng rng(23);
  const int64_t m = 37, n = 53, k = 129;
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  set_gemm_backend(GemmBackend::kSimd);
  const std::string simd_name = gemm_backend_name();
  Tensor c_simd({m, n});
  gemm_nn(m, n, k, a.data(), b.data(), c_simd.data());
  set_gemm_backend(GemmBackend::kScalar);
  EXPECT_STREQ(gemm_backend_name(), "scalar");
  Tensor c_scalar({m, n});
  gemm_nn(m, n, k, a.data(), b.data(), c_scalar.data());
  set_gemm_backend(GemmBackend::kAuto);
  for (int64_t i = 0; i < c_simd.numel(); ++i)
    EXPECT_NEAR(c_simd.data()[i], c_scalar.data()[i], 1e-4f)
        << "backend " << simd_name << " at " << i;
}

TEST(GemmEpilogue, RowBiasMatchesManual) {
  Rng rng(29);
  const int64_t m = 11, n = 40, k = 23;
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor bias = Tensor::randn({m}, rng);
  Tensor c({m, n});
  GemmEpilogue ep;
  ep.row_bias = bias.data();
  gemm_nn_ex(m, n, k, a.data(), b.data(), c.data(), ep);
  Tensor ref({m, n});
  gemm_ref_nn(m, n, k, a.data(), b.data(), ref.data());
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = 0; j < n; ++j)
      EXPECT_NEAR(c.at({i, j}), ref.at({i, j}) + bias.data()[i], 1e-3f);
}

TEST(GemmEpilogue, ColBiasReluMatchesManual) {
  Rng rng(31);
  const int64_t m = 9, n = 21, k = 17;
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor bt = Tensor::randn({n, k}, rng);
  Tensor bias = Tensor::randn({n}, rng);
  Tensor c({m, n});
  GemmEpilogue ep;
  ep.col_bias = bias.data();
  ep.relu = true;
  gemm_nt_ex(m, n, k, a.data(), bt.data(), c.data(), ep);
  Tensor ref({m, n});
  gemm_ref_nt(m, n, k, a.data(), bt.data(), ref.data());
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = 0; j < n; ++j) {
      const float want =
          std::max(0.0f, ref.at({i, j}) + bias.data()[j]);
      EXPECT_NEAR(c.at({i, j}), want, 1e-3f);
    }
}

/// C = packed_A · B through the single-threaded prepacked GEMM.
void prepacked_nn(const PackedGemmA& a, int64_t n, const float* b, float* c) {
  std::vector<float> scratch(
      static_cast<size_t>(gemm_nn_prepacked_scratch(n, a.k)));
  gemm_nn_prepacked(a, n, b, n, c, n, {}, scratch.data());
}

TEST(GemmPrepacked, MatchesUnpacked) {
  Rng rng(37);
  for (const auto [m, k] : {std::pair<int64_t, int64_t>{12, 108},
                            {6, 256}, {5, 300}, {23, 64}, {1, 7}}) {
    const int64_t n = 65;
    Tensor a = Tensor::randn({m, k}, rng);
    Tensor b = Tensor::randn({k, n}, rng);
    const PackedGemmA packed = pack_gemm_a(m, k, a.data());
    Tensor c({m, n});
    prepacked_nn(packed, n, b.data(), c.data());
    Tensor ref({m, n});
    gemm_nn(m, n, k, a.data(), b.data(), ref.data());
    // Same micro-kernel, packed A and k-block order: bit-identical.
    for (int64_t i = 0; i < c.numel(); ++i)
      EXPECT_EQ(c.data()[i], ref.data()[i])
          << "m=" << m << " k=" << k << " at " << i;
  }
}

TEST(GemmPrepacked, ReusableAcrossCalls) {
  // Packing once and calling twice (the conv-over-batch pattern) must give
  // the same result both times.
  Rng rng(41);
  const int64_t m = 8, n = 30, k = 45;
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b1 = Tensor::randn({k, n}, rng);
  Tensor b2 = Tensor::randn({k, n}, rng);
  const PackedGemmA packed = pack_gemm_a(m, k, a.data());
  Tensor c1({m, n}), c2({m, n}), r1({m, n}), r2({m, n});
  prepacked_nn(packed, n, b1.data(), c1.data());
  prepacked_nn(packed, n, b2.data(), c2.data());
  gemm_nn(m, n, k, a.data(), b1.data(), r1.data());
  gemm_nn(m, n, k, a.data(), b2.data(), r2.data());
  for (int64_t i = 0; i < c1.numel(); ++i) {
    EXPECT_FLOAT_EQ(c1.data()[i], r1.data()[i]);
    EXPECT_FLOAT_EQ(c2.data()[i], r2.data()[i]);
  }
}

TEST(GemmReference, RefKernelsMatchNaive) {
  // The retained pre-optimization kernels are the oracle elsewhere; check
  // them against the triple loop once here.
  Rng rng(43);
  const int64_t m = 14, n = 19, k = 33;
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor c({m, n}), ref({m, n});
  gemm_ref_nn(m, n, k, a.data(), b.data(), c.data());
  naive_gemm(m, n, k, a.data(), b.data(), ref.data());
  for (int64_t i = 0; i < c.numel(); ++i)
    EXPECT_NEAR(c.data()[i], ref.data()[i], 1e-3f);
}

TEST(Gemm, AccumulatesIntoC) {
  Tensor a({1, 1}, {2.0f});
  Tensor b({1, 1}, {3.0f});
  Tensor c({1, 1}, {10.0f});
  gemm_nn(1, 1, 1, a.data(), b.data(), c.data());
  EXPECT_FLOAT_EQ(c.item(), 16.0f);
}

TEST(Gemm, SkipsZeroWeights) {
  // The nn kernel short-circuits zero A entries (binary nets are sparse in
  // sums); verify correctness is unaffected.
  Tensor a({2, 2}, {0.0f, 1.0f, -1.0f, 0.0f});
  Tensor b({2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  Tensor c = matmul(Tensor({2, 2}, {0, 1, -1, 0}), b);
  EXPECT_FLOAT_EQ(c.at({0, 0}), 3.0f);
  EXPECT_FLOAT_EQ(c.at({0, 1}), 4.0f);
  EXPECT_FLOAT_EQ(c.at({1, 0}), -1.0f);
  EXPECT_FLOAT_EQ(c.at({1, 1}), -2.0f);
}

TEST(Gemm, MatmulShapeChecks) {
  Tensor a({2, 3});
  Tensor b({4, 2});
  EXPECT_THROW(matmul(a, b), CheckError);
  Tensor c({3});
  EXPECT_THROW(matmul(a, c), CheckError);
}

}  // namespace
}  // namespace ripple
