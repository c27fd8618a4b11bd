#include "nn/norm.h"

#include "autograd/ops.h"

#include <gtest/gtest.h>

#include <cmath>

#include "autograd/lowered.h"
#include "tensor/ops.h"
#include "tensor/random.h"
#include "tensor/threadpool.h"

namespace ripple::nn {
namespace {

namespace ag = ripple::autograd;

TEST(BatchNorm, TrainOutputStandardizedWithDefaultAffine) {
  Rng rng(1);
  BatchNorm bn(4);
  ag::Variable y =
      bn.forward(ag::Variable(Tensor::randn({32, 4}, rng, 5.0f, 2.0f)));
  // γ=1, β=0 initially → output is standardized per feature.
  for (int64_t c = 0; c < 4; ++c) {
    double mean = 0.0;
    for (int64_t n = 0; n < 32; ++n) mean += y.value().at({n, c});
    EXPECT_NEAR(mean / 32.0, 0.0, 1e-4);
  }
}

TEST(BatchNorm, EvalModeUsesRunningStats) {
  Rng rng(2);
  BatchNorm bn(2);
  // Train on shifted data to move the running stats.
  for (int i = 0; i < 50; ++i)
    bn.forward(ag::Variable(Tensor::randn({16, 2}, rng, 4.0f, 1.0f)));
  bn.set_training(false);
  // Shifted input normalizes to ~0 under the learned stats.
  ag::Variable y = bn.forward(ag::Variable(Tensor::full({8, 2}, 4.0f)));
  for (float v : y.value().span()) EXPECT_NEAR(v, 0.0f, 0.3f);
}

TEST(BatchNorm, RunningStatsRegisteredAsBuffers) {
  BatchNorm bn(3);
  const auto bufs = bn.buffers();
  ASSERT_EQ(bufs.size(), 2u);
  EXPECT_EQ(bufs[0].name, "running_mean");
  EXPECT_EQ(bufs[1].name, "running_var");
}

TEST(BatchNorm, AffineParamsHaveNormKinds) {
  BatchNorm bn(3);
  EXPECT_EQ(bn.parameters(ag::ParamKind::kAffineWeight).size(), 1u);
  EXPECT_EQ(bn.parameters(ag::ParamKind::kAffineBias).size(), 1u);
}

TEST(BatchNorm, ChannelMismatchThrows) {
  BatchNorm bn(3);
  EXPECT_THROW(bn.forward(ag::Variable(Tensor({2, 4}))), CheckError);
}

TEST(LayerNorm, PerInstanceStatistics) {
  Rng rng(3);
  LayerNorm ln(6);
  // Each sample gets its own statistics — scale one sample hugely; its
  // normalized output must match the unscaled sample's.
  Tensor x = Tensor::randn({2, 6}, rng);
  for (int64_t j = 0; j < 6; ++j)
    x.at({1, j}) = x.at({0, j}) * 100.0f;
  ag::Variable y = ln.forward(ag::Variable(x));
  for (int64_t j = 0; j < 6; ++j)
    EXPECT_NEAR(y.value().at({0, j}), y.value().at({1, j}), 1e-3f);
}

TEST(LayerNorm, TrainEvalIdentical) {
  Rng rng(4);
  LayerNorm ln(4);
  Tensor x = Tensor::randn({3, 4, 2, 2}, rng);
  ag::Variable y_train = ln.forward(ag::Variable(x));
  ln.set_training(false);
  ag::Variable y_eval = ln.forward(ag::Variable(x));
  for (int64_t i = 0; i < x.numel(); ++i)
    EXPECT_FLOAT_EQ(y_train.value().data()[i], y_eval.value().data()[i]);
}

TEST(GroupNorm, GroupCountValidation) {
  EXPECT_THROW(GroupNorm(6, 4), CheckError);
  EXPECT_NO_THROW(GroupNorm(6, 3));
}

TEST(GroupNorm, NormalizesWithinGroups) {
  Rng rng(5);
  GroupNorm gn(4, 2);
  // Scale channels 2,3 by 50 — their group renormalizes independently of
  // channels 0,1.
  Tensor x = Tensor::randn({1, 4, 4, 4}, rng);
  Tensor x2 = x.clone();
  for (int64_t c = 2; c < 4; ++c)
    for (int64_t i = 0; i < 16; ++i)
      x2.data()[c * 16 + i] *= 50.0f;
  ag::Variable y1 = gn.forward(ag::Variable(x));
  ag::Variable y2 = gn.forward(ag::Variable(x2));
  // First group unchanged:
  for (int64_t i = 0; i < 2 * 16; ++i)
    EXPECT_NEAR(y1.value().data()[i], y2.value().data()[i], 1e-3f);
  // Second group: scaling cancels (mean is ~0 already within the group).
  for (int64_t i = 2 * 16; i < 4 * 16; ++i)
    EXPECT_NEAR(y1.value().data()[i], y2.value().data()[i], 2e-2f);
}

/// The one-slab-at-a-time loop group_normalize_into is defined by: per
/// slab, mean and variance as double sums in index order.
void serial_group_normalize(const Tensor& x, int64_t groups, float eps,
                            Tensor& out, float* inv_std) {
  const int64_t slabs = x.dim(0) * groups;
  const int64_t m = x.numel() / slabs;
  for (int64_t slab = 0; slab < slabs; ++slab) {
    const float* src = x.data() + slab * m;
    float* dst = out.data() + slab * m;
    double sum = 0.0;
    for (int64_t i = 0; i < m; ++i) sum += src[i];
    const double mean = sum / static_cast<double>(m);
    double var = 0.0;
    for (int64_t i = 0; i < m; ++i) {
      const double d = src[i] - mean;
      var += d * d;
    }
    var /= static_cast<double>(m);
    const float s = 1.0f / std::sqrt(static_cast<float>(var) + eps);
    inv_std[slab] = s;
    for (int64_t i = 0; i < m; ++i)
      dst[i] = (src[i] - static_cast<float>(mean)) * s;
  }
}

TEST(GroupNorm, PooledNormalizeIsBitIdenticalToSerialLoop) {
  // Slab counts that split unevenly among the pool's participants and
  // leave a remainder after the multi-slab interleave: 43 slabs of 4096
  // (several slabs per chunk), 9 slabs of 40000 (one per chunk), and 39
  // small slabs (inline).
  Rng rng(9);
  const uint64_t regions_before = ThreadPool::global().regions();
  for (const auto& [shape, groups] :
       {std::pair<Shape, int64_t>{{43, 2, 32, 64}, 1},
        {{3, 3, 200, 200}, 3},
        {{13, 6, 5, 7}, 3}}) {
    const Tensor x = Tensor::randn(shape, rng, 5.0f, 2.0f);
    const int64_t slabs = shape[0] * groups;
    Tensor got(shape), want(shape);
    std::vector<float> got_inv(static_cast<size_t>(slabs));
    std::vector<float> want_inv(static_cast<size_t>(slabs));
    ag::group_normalize_into(x, groups, 1e-5f, got, got_inv.data());
    serial_group_normalize(x, groups, 1e-5f, want, want_inv.data());
    for (int64_t i = 0; i < x.numel(); ++i)
      ASSERT_EQ(got.data()[i], want.data()[i])
          << "slabs " << slabs << " at " << i;
    for (int64_t j = 0; j < slabs; ++j)
      ASSERT_EQ(got_inv[static_cast<size_t>(j)],
                want_inv[static_cast<size_t>(j)])
          << "slabs " << slabs << " slab " << j;
  }
  // With workers, the two large cases ran as parallel regions.
  if (ThreadPool::global().size() > 0)
    EXPECT_GE(ThreadPool::global().regions(), regions_before + 2);
}

TEST(InstanceNorm, EachChannelStandardized) {
  Rng rng(6);
  InstanceNorm in_norm(3);
  ag::Variable y = in_norm.forward(
      ag::Variable(Tensor::randn({2, 3, 5, 5}, rng, 7.0f, 3.0f)));
  const float* p = y.value().data();
  for (int64_t nc = 0; nc < 6; ++nc) {
    double mean = 0.0;
    for (int64_t i = 0; i < 25; ++i) mean += p[nc * 25 + i];
    EXPECT_NEAR(mean / 25.0, 0.0, 1e-4);
  }
}

TEST(NormLayers, AffineIsTrainable) {
  LayerNorm ln(4);
  Rng rng(7);
  ag::Variable y =
      ln.forward(ag::Variable(Tensor::randn({2, 4}, rng)));
  ag::Variable loss = ag::mean_all(ag::mul(y, y));
  loss.backward();
  bool any_grad = false;
  for (auto* p : ln.parameters())
    if (p->var.has_grad()) any_grad = true;
  EXPECT_TRUE(any_grad);
}

}  // namespace
}  // namespace ripple::nn
