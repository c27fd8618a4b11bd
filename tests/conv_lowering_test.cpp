// The lowered convolution forwards (conv2d_forward_into / conv1d_forward_into)
// against their definition, im2col + gemm_nn_ex + row bias, compared bit
// for bit. Shapes cover K > kKC (256, two k blocks), output
// areas that are not a multiple of any kernel width, Cout not a multiple of
// the 6-row micro-tile, stride 2, padding, and batches of 1 and 257 (more
// samples than pool participants, not divisible by them).
//
// The binary is registered twice with ctest, once at the default pool width
// and once with RIPPLE_THREADS=1: the same bits at both widths are the
// thread-count invariance check for the conv lowering and the GEMM.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <vector>

#include "autograd/lowered.h"
#include "deploy/exec_backend.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/random.h"

namespace ripple {
namespace {

bool bit_equal(const float* a, const float* b, int64_t n) {
  return std::memcmp(a, b, sizeof(float) * static_cast<size_t>(n)) == 0;
}

/// The definition, tiled differently from the lowering: groups of up to
/// 37 samples are im2col'd side by side into one [CK, G·OA] matrix, one
/// multi-threaded gemm_nn_ex (+ row bias) covers the group, and the result
/// scatters back to [N, Cout, OA]. Tile boundaries then fall mid-sample,
/// so equality also pins down that no result depends on them.
template <class Im2col>
Tensor reference_conv(int64_t n, int64_t cout, int64_t ck, int64_t oa,
                      const Tensor& w, const float* bias, Shape out_shape,
                      const Im2col& im2col) {
  constexpr int64_t kGroup = 37;
  Tensor out(std::move(out_shape));
  std::vector<float> one(static_cast<size_t>(ck * oa));
  GemmEpilogue ep;
  ep.row_bias = bias;
  for (int64_t g0 = 0; g0 < n; g0 += kGroup) {
    const int64_t gn = std::min(kGroup, n - g0);
    const int64_t ld = gn * oa;
    std::vector<float> cols(static_cast<size_t>(ck * ld));
    for (int64_t s = 0; s < gn; ++s) {
      im2col(g0 + s, one.data());
      for (int64_t r = 0; r < ck; ++r)
        std::copy_n(one.data() + r * oa, oa, cols.data() + r * ld + s * oa);
    }
    std::vector<float> c(static_cast<size_t>(cout * ld), 0.0f);
    gemm_nn_ex(cout, ld, ck, w.data(), cols.data(), c.data(), ep);
    for (int64_t s = 0; s < gn; ++s)
      for (int64_t co = 0; co < cout; ++co)
        std::copy_n(c.data() + co * ld + s * oa, oa,
                    out.data() + ((g0 + s) * cout + co) * oa);
  }
  return out;
}

struct Conv2dCase {
  int64_t n, cin, h, w, cout, k, stride, pad;
  bool bias;
};

Tensor reference_conv2d(const Tensor& x, const Tensor& w, const Tensor& b,
                        const Conv2dCase& c) {
  const int64_t oh = conv_out_size(c.h, c.k, c.stride, c.pad);
  const int64_t ow = conv_out_size(c.w, c.k, c.stride, c.pad);
  return reference_conv(
      c.n, c.cout, c.cin * c.k * c.k, oh * ow, w,
      c.bias ? b.data() : nullptr, {c.n, c.cout, oh, ow},
      [&](int64_t s, float* cols) {
        im2col_2d(x.data() + s * c.cin * c.h * c.w, c.cin, c.h, c.w, c.k,
                  c.k, c.stride, c.pad, cols);
      });
}

Tensor lowered_conv2d(const Tensor& x, const Tensor& w, const Tensor& b,
                      const Conv2dCase& c, autograd::ConvWorkspace& ws) {
  Tensor out = Tensor::empty(
      {c.n, c.cout, conv_out_size(c.h, c.k, c.stride, c.pad),
       conv_out_size(c.w, c.k, c.stride, c.pad)});
  autograd::conv2d_forward_into(x, w, c.bias ? b.data() : nullptr, c.stride,
                                c.pad, ws, out);
  return out;
}

TEST(ConvLowering, Conv2dBitEqualsIm2colGemm) {
  const Conv2dCase cases[] = {
      // ck = 288 > kKC, oa = 225, Cout = 13.
      {1, 32, 15, 15, 13, 3, 1, 1, true},
      {257, 32, 15, 15, 13, 3, 1, 1, true},
      // Stride 2 with padding: ck = 270, oa = 81, Cout = 7, no bias.
      {1, 30, 17, 17, 7, 3, 2, 1, false},
      {257, 30, 17, 17, 7, 3, 2, 1, false},
      // The fault_sweep ResNet stage shape (ck = 108, oa = 256).
      {257, 12, 16, 16, 12, 3, 1, 1, true},
  };
  Rng rng(7);
  for (const Conv2dCase& c : cases) {
    Tensor x = Tensor::randn({c.n, c.cin, c.h, c.w}, rng);
    Tensor w = Tensor::randn({c.cout, c.cin, c.k, c.k}, rng, 0.0f, 0.2f);
    Tensor b = Tensor::randn({c.cout}, rng);
    const Tensor want = reference_conv2d(x, w, b, c);
    autograd::ConvWorkspace ws;
    const Tensor got = lowered_conv2d(x, w, b, c, ws);
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_TRUE(bit_equal(got.data(), want.data(), want.numel()))
        << "n=" << c.n << " cin=" << c.cin << " cout=" << c.cout
        << " stride=" << c.stride;
    // A reused (already sized) workspace gives the same bits.
    const Tensor again = lowered_conv2d(x, w, b, c, ws);
    EXPECT_TRUE(bit_equal(again.data(), want.data(), want.numel()));
  }
}

TEST(ConvLowering, Conv1dBitEqualsIm2colGemm) {
  struct Case {
    int64_t n, cin, l, cout, k, stride, pad;
  };
  // ck = 280 > kKC; ol = 50 (stride 2) and 100 (stride 1); Cout = 11.
  const Case cases[] = {{1, 40, 100, 11, 7, 2, 3},
                        {257, 40, 100, 11, 7, 2, 3},
                        {257, 40, 100, 11, 7, 1, 3}};
  Rng rng(11);
  for (const Case& c : cases) {
    const int64_t ol = conv_out_size(c.l, c.k, c.stride, c.pad);
    Tensor x = Tensor::randn({c.n, c.cin, c.l}, rng);
    Tensor w = Tensor::randn({c.cout, c.cin, c.k}, rng, 0.0f, 0.2f);
    Tensor b = Tensor::randn({c.cout}, rng);
    const Tensor want = reference_conv(
        c.n, c.cout, c.cin * c.k, ol, w, b.data(), {c.n, c.cout, ol},
        [&](int64_t s, float* cols) {
          im2col_1d(x.data() + s * c.cin * c.l, c.cin, c.l, c.k, c.stride,
                    c.pad, cols);
        });
    autograd::ConvWorkspace ws;
    Tensor got = Tensor::empty({c.n, c.cout, ol});
    autograd::conv1d_forward_into(x, w, b.data(), c.stride, c.pad, ws, got);
    EXPECT_TRUE(bit_equal(got.data(), want.data(), want.numel()))
        << "n=" << c.n << " stride=" << c.stride;
  }
}

/// Counts conv_cols offers; claims them (with the reference GEMM plus a
/// marker offset) only when `claim` is set.
class CountingBackend : public deploy::ExecutionBackend {
 public:
  explicit CountingBackend(bool claim) : claim_(claim) {}
  const char* name() const override { return "counting"; }
  bool conv_cols(int64_t cout, int64_t l, int64_t ck, const float* w,
                 const float* cols, float* stage,
                 const float* row_bias) override {
    offers_.fetch_add(1, std::memory_order_relaxed);
    if (!claim_) return false;
    GemmEpilogue ep;
    ep.row_bias = row_bias;
    gemm_nn_ex(cout, l, ck, w, cols, stage, ep);
    for (int64_t i = 0; i < cout * l; ++i) stage[i] += 1.0f;
    return true;
  }
  int offers() const { return offers_.load(); }

 private:
  bool claim_;
  std::atomic<int> offers_{0};
};

TEST(ConvLowering, BackendSeesOneOfferPerSampleOnlyWhenItClaims) {
  const Conv2dCase c{37, 32, 15, 15, 13, 3, 1, 1, true};
  Rng rng(13);
  Tensor x = Tensor::randn({c.n, c.cin, c.h, c.w}, rng);
  Tensor w = Tensor::randn({c.cout, c.cin, c.k, c.k}, rng, 0.0f, 0.2f);
  Tensor b = Tensor::randn({c.cout}, rng);
  const Tensor digital = reference_conv2d(x, w, b, c);
  {
    // A declining backend is asked once (on the calling thread) and the
    // digital lowering serves every sample.
    CountingBackend backend(/*claim=*/false);
    deploy::ExecBackendScope scope(&backend);
    autograd::ConvWorkspace ws;
    const Tensor got = lowered_conv2d(x, w, b, c, ws);
    EXPECT_EQ(backend.offers(), 1);
    EXPECT_TRUE(bit_equal(got.data(), digital.data(), digital.numel()));
  }
  {
    // A claiming backend gets every sample, each as its own [Cout, OA]
    // block written straight into the output.
    CountingBackend backend(/*claim=*/true);
    deploy::ExecBackendScope scope(&backend);
    autograd::ConvWorkspace ws;
    const Tensor got = lowered_conv2d(x, w, b, c, ws);
    EXPECT_EQ(backend.offers(), c.n);
    for (int64_t i = 0; i < digital.numel(); ++i)
      ASSERT_EQ(got.data()[i], digital.data()[i] + 1.0f) << "at " << i;
  }
}

TEST(GemmPrepacked, ColumnSlicesGiveTheSameBitsAsOneCall) {
  // K = 300 spans two k blocks, so any element whose accumulation depended
  // on whether it fell on an edge tile would differ between the splits.
  const int64_t m = 13, k = 300, n = 203;
  Rng rng(17);
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor bias = Tensor::randn({m}, rng);
  GemmEpilogue ep;
  ep.row_bias = bias.data();
  const PackedGemmA packed = pack_gemm_a(m, k, a.data());
  std::vector<float> scratch(
      static_cast<size_t>(gemm_nn_prepacked_scratch(n, k)));

  Tensor whole({m, n});
  gemm_nn_prepacked(packed, n, b.data(), n, whole.data(), n, ep,
                    scratch.data());
  Tensor ref({m, n});
  gemm_nn_ex(m, n, k, a.data(), b.data(), ref.data(), ep);
  EXPECT_TRUE(bit_equal(whole.data(), ref.data(), ref.numel()));

  for (const int64_t width : {1, 5, 16, 31, 33, 64, 100}) {
    Tensor sliced({m, n});
    for (int64_t j0 = 0; j0 < n; j0 += width) {
      const int64_t w = std::min(width, n - j0);
      gemm_nn_prepacked(packed, w, b.data() + j0, n, sliced.data() + j0, n,
                        ep, scratch.data());
    }
    EXPECT_TRUE(bit_equal(sliced.data(), whole.data(), whole.numel()))
        << "slice width " << width;
  }
}

}  // namespace
}  // namespace ripple
