// tensor/vmath.h — vectorized σ/tanh serving kernels.
//
// The load-bearing property is bit-exactness of the vector form against
// the scalar single-element form in any chunking: the compiled-plan
// verification gate memcmp's plan outputs (fused LSTM gates calling these
// kernels on one gate plane over all rows) against the graph oracle
// (calling them on whole tensors), so any lane- or chunk-dependence would
// break plan installation. Lengths that are not a lane multiple end in a
// masked vector iteration, which must neither change the valid lanes nor
// write past y[n-1]. Accuracy against libm only needs to be a few ulp —
// the consumers are saturating gate activations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <utility>
#include <vector>

#include "tensor/random.h"
#include "tensor/vmath.h"

namespace {

using namespace ripple;

std::vector<float> probe_inputs() {
  std::vector<float> x;
  // Dense sweep through both tanh branches, the saturated tails, and the
  // exp clamp region, plus exact branch/boundary values.
  for (float v = -12.0f; v <= 12.0f; v += 1.0f / 64.0f) x.push_back(v);
  for (float v : {-1e4f, -200.0f, -88.0f, -87.0f, -0.625f, -0.0f, 0.0f,
                  0.625f, 87.0f, 88.0f, 200.0f, 1e4f})
    x.push_back(v);
  Rng rng(321);
  for (int i = 0; i < 4096; ++i) x.push_back(rng.uniform(-30.0f, 30.0f));
  return x;
}

TEST(VMath, VectorMatchesScalarBitExact) {
  const std::vector<float> x = probe_inputs();
  const int64_t n = static_cast<int64_t>(x.size());
  std::vector<float> yt(x.size()), ys(x.size());
  vtanh(x.data(), yt.data(), n);
  vsigmoid(x.data(), ys.data(), n);
  for (int64_t i = 0; i < n; ++i) {
    const float st = vtanh1(x[i]);
    const float ss = vsigmoid1(x[i]);
    EXPECT_EQ(0, std::memcmp(&yt[i], &st, sizeof(float)))
        << "tanh lane mismatch at x=" << x[i];
    EXPECT_EQ(0, std::memcmp(&ys[i], &ss, sizeof(float)))
        << "sigmoid lane mismatch at x=" << x[i];
  }
}

TEST(VMath, ChunkingInvariant) {
  const std::vector<float> x = probe_inputs();
  const int64_t n = static_cast<int64_t>(x.size());
  std::vector<float> whole(x.size()), pieces(x.size());
  vtanh(x.data(), whole.data(), n);
  // Uneven chunks force every vector/tail split to land differently.
  for (int64_t off = 0; off < n;) {
    const int64_t len = std::min<int64_t>(n - off, 1 + (off * 7) % 13);
    vtanh(x.data() + off, pieces.data() + off, len);
    off += len;
  }
  EXPECT_EQ(0, std::memcmp(whole.data(), pieces.data(),
                           sizeof(float) * x.size()));
}

TEST(VMath, MaskedTailsMatchScalarAndStayInBounds) {
  // Every length 1..40 (whole vectors plus every tail width under both the
  // 8- and 16-lane kernels) at every input/output offset 0..15 from a
  // 64-byte boundary. Sentinels around y[0, n) must survive.
  constexpr int kMaxN = 40;
  constexpr int kGuard = 16;
  const std::vector<float> probe = probe_inputs();
  alignas(64) float xbuf[16 + kMaxN];
  alignas(64) float ybuf[kGuard + 16 + kMaxN + kGuard];
  const float sentinel = -1234.5f;
  using Kernel = void (*)(const float*, float*, int64_t);
  using Scalar = float (*)(float);
  const std::pair<Kernel, Scalar> kernels[] = {{vtanh, vtanh1},
                                               {vsigmoid, vsigmoid1}};
  for (const auto& [vec, one] : kernels) {
    for (int n = 1; n <= kMaxN; ++n) {
      for (int off = 0; off < 16; ++off) {
        for (int i = 0; i < 16 + kMaxN; ++i)
          xbuf[i] = probe[(static_cast<size_t>(n) * 97 + off * 13 + i) %
                          probe.size()];
        std::fill(std::begin(ybuf), std::end(ybuf), sentinel);
        const float* x = xbuf + off;
        float* y = ybuf + kGuard + off;
        vec(x, y, n);
        for (int i = 0; i < n; ++i) {
          const float want = one(x[i]);
          ASSERT_EQ(0, std::memcmp(&y[i], &want, sizeof(float)))
              << "n=" << n << " off=" << off << " lane " << i;
        }
        for (float* p = ybuf; p < y; ++p)
          ASSERT_EQ(*p, sentinel) << "n=" << n << " off=" << off
                                  << " wrote before y[0]";
        for (float* p = y + n; p < std::end(ybuf); ++p)
          ASSERT_EQ(*p, sentinel) << "n=" << n << " off=" << off
                                  << " wrote y[" << (p - y) << "]";
      }
    }
  }
}

TEST(VMath, AccuracyAgainstLibm) {
  const std::vector<float> x = probe_inputs();
  for (float v : x) {
    const double rt = std::tanh(double(v));
    const double rs = 1.0 / (1.0 + std::exp(-double(v)));
    EXPECT_NEAR(vtanh1(v), rt, 4e-7 + 4e-7 * std::fabs(rt)) << "x=" << v;
    EXPECT_NEAR(vsigmoid1(v), rs, 4e-7 + 4e-7 * std::fabs(rs)) << "x=" << v;
  }
}

TEST(VMath, SaturatesExactly) {
  EXPECT_EQ(1.0f, vtanh1(20.0f));
  EXPECT_EQ(-1.0f, vtanh1(-20.0f));
  EXPECT_EQ(1.0f, vtanh1(1e6f));
  EXPECT_EQ(1.0f, vsigmoid1(100.0f));
  EXPECT_EQ(0.0f, vtanh1(0.0f));
  EXPECT_EQ(0.5f, vsigmoid1(0.0f));
  EXPECT_GE(vsigmoid1(-100.0f), 0.0f);
  EXPECT_LT(vsigmoid1(-100.0f), 1e-30f);
}

}  // namespace
