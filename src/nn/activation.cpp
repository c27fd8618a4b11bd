#include "nn/activation.h"

#include <algorithm>
#include <vector>

#include "autograd/ops.h"
#include "core/lazy_stem.h"
#include "core/mc_stream.h"
#include "tensor/ops.h"
#include "tensor/threadpool.h"

namespace ripple::nn {

autograd::Variable Relu::forward(const autograd::Variable& x) {
  return autograd::relu(x);
}

autograd::Variable Sigmoid::forward(const autograd::Variable& x) {
  return autograd::sigmoid(x);
}

autograd::Variable Tanh::forward(const autograd::Variable& x) {
  return autograd::tanh_op(x);
}

autograd::Variable Identity::forward(const autograd::Variable& x) {
  return x;
}

namespace {

/// Stream-context noise: draws derive from (session seed, slot, invocation,
/// replica) — plus the injector's per-run salt — instead of a shared
/// generator, so concurrent noisy passes never race and a pinned
/// per-request stream reproduces the same noise from any thread. One
/// generator per folded MC replica, shared across the three noise tensors,
/// so a batched [t·N, ...] pass replays the serial per-replica draw order
/// exactly (the dropout layers' contract). The replica blocks are filled
/// in parallel: each touches only its own generator, so the values are
/// those of a serial loop over replicas.
autograd::Variable apply_context_noise(const autograd::Variable& x,
                                       ActivationNoiseConfig& cfg,
                                       core::McStreamContext& ctx) {
  // Noise tensors are replica-dependent: expand a lazy stem input here.
  const autograd::Variable xin =
      core::lazy_stem_pending(x.dim(0)) ? core::replicate_stem(x) : x;
  const uint64_t inv_seed = core::mc_salted_seed(
      ctx.next_invocation_seed(static_cast<size_t>(cfg.stream_slot)),
      cfg.stream_salt);
  const int64_t t = ctx.replicas();
  RIPPLE_CHECK(xin.dim(0) % t == 0)
      << "activation noise: batch " << xin.dim(0) << " not divisible into "
      << t << " MC replicas";
  const int64_t block = xin.value().numel() / t;
  std::vector<Rng> subs;
  subs.reserve(static_cast<size_t>(t));
  for (int64_t r = 0; r < t; ++r)
    subs.emplace_back(core::mc_chunk_seed(
        core::mc_replica_seed(inv_seed, ctx.replica_offset() + r),
        ctx.chunk_offset()));
  const auto draw = [&](auto&& fill) {
    Tensor noise = Tensor::empty(xin.shape());
    // Work: ~32 FLOPs per draw (a normal sample's log, sqrt and sin/cos).
    parallel_for(t, 32 * block, [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r)
        fill(noise.data() + r * block, subs[static_cast<size_t>(r)]);
    });
    return noise;
  };
  autograd::Variable y = xin;
  if (cfg.multiplicative_std > 0.0f) {
    Tensor factor = draw([&](float* p, Rng& rng) {
      for (int64_t i = 0; i < block; ++i)
        p[i] = rng.normal(1.0f, cfg.multiplicative_std);
    });
    y = autograd::mul(y, autograd::Variable(std::move(factor)));
  }
  if (cfg.additive_std > 0.0f) {
    Tensor offset = draw([&](float* p, Rng& rng) {
      for (int64_t i = 0; i < block; ++i)
        p[i] = rng.normal(0.0f, cfg.additive_std);
    });
    y = autograd::add(y, autograd::Variable(std::move(offset)));
  }
  if (cfg.uniform_range > 0.0f) {
    Tensor offset = draw([&](float* p, Rng& rng) {
      for (int64_t i = 0; i < block; ++i)
        p[i] = rng.uniform(-cfg.uniform_range, cfg.uniform_range);
    });
    y = autograd::add(y, autograd::Variable(std::move(offset)));
  }
  return y;
}

}  // namespace

autograd::Variable apply_activation_noise(const autograd::Variable& x,
                                          ActivationNoiseConfig& cfg) {
  if (core::McStreamContext* ctx = core::active_mc_stream();
      ctx != nullptr && cfg.stream_slot >= 0)
    return apply_context_noise(x, cfg, *ctx);
  autograd::Variable y = x;
  Rng& rng = cfg.generator();
  if (cfg.multiplicative_std > 0.0f) {
    // y *= (1 + n), n ~ N(0, σ_mul)
    Tensor factor =
        Tensor::randn(y.shape(), rng, 1.0f, cfg.multiplicative_std);
    y = autograd::mul(y, autograd::Variable(std::move(factor)));
  }
  if (cfg.additive_std > 0.0f) {
    Tensor offset = Tensor::randn(y.shape(), rng, 0.0f, cfg.additive_std);
    y = autograd::add(y, autograd::Variable(std::move(offset)));
  }
  if (cfg.uniform_range > 0.0f) {
    Tensor offset = Tensor::uniform(y.shape(), rng, -cfg.uniform_range,
                                    cfg.uniform_range);
    y = autograd::add(y, autograd::Variable(std::move(offset)));
  }
  return y;
}

SignActivation::SignActivation(ActivationNoisePtr noise, float ste_clip)
    : noise_(std::move(noise)), ste_clip_(ste_clip) {}

autograd::Variable SignActivation::forward(const autograd::Variable& x) {
  autograd::Variable y = x;
  if (noise_ != nullptr && noise_->enabled)
    y = apply_activation_noise(y, *noise_);
  return autograd::sign_ste(y, ste_clip_);
}

}  // namespace ripple::nn
