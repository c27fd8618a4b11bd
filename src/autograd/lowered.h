// Shared inference-forward kernels.
//
// Each `*_forward_into` writes a layer forward into a caller-owned output
// buffer and is called from two places: the autograd ops (graph execution)
// and the compiled execution plans (deploy/plan.cpp). Keeping exactly one
// definition of the arithmetic — same kernel dispatch, same accumulation
// order, same epilogue — is what makes a compiled plan bit-exact against
// the graph oracle, which `deploy::compile` verifies with memcmp.
//
// All kernels route through the active ExecutionBackend / PackedACache
// scopes exactly like the graph ops, so the three serving backends
// (kFp32 / kQuantSim / kCrossbar) behave identically on both paths.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace ripple::autograd {

/// out = x · wᵀ (+ bias per output column). x [N,Fin], w [Fout,Fin],
/// out [N,Fout]. Zeroes `out` first (the GEMM accumulates into C).
void linear_forward_into(const Tensor& x, const Tensor& w, const float* bias,
                         Tensor& out);

/// Per-participant scratch of the lowered convolutions: one slot per pool
/// participant (ThreadPool size + 1), indexed by the conv's chunk id, so
/// no two threads ever share a slot and nothing is thread_local. `ensure`
/// grows (never shrinks) the slots a conv over n samples uses; compiled
/// plans size them when they build a PlanContext, so the steady-state
/// serving path never reallocates.
struct ConvWorkspace {
  struct Slot {
    detail::FloatStorage cols;   // one sample's patch matrix [ck, oa]
    detail::FloatStorage bpack;  // gemm_nn_prepacked B panels
  };
  std::vector<Slot> slots;
  void ensure(int64_t n, int64_t ck, int64_t oa);
};

/// out = conv2d(x, w) (+ per-channel bias). x [N,Cin,H,W],
/// w [Cout,Cin,kh,kw], out [N,Cout,OH,OW] (fully overwritten).
void conv2d_forward_into(const Tensor& x, const Tensor& w, const float* bias,
                         int64_t stride, int64_t pad, ConvWorkspace& ws,
                         Tensor& out);

/// out = conv1d(x, w) (+ per-channel bias). x [N,Cin,L], w [Cout,Cin,k],
/// out [N,Cout,OL] (fully overwritten).
void conv1d_forward_into(const Tensor& x, const Tensor& w, const float* bias,
                         int64_t stride, int64_t pad, ConvWorkspace& ws,
                         Tensor& out);

/// Zero-mean / unit-variance per (sample, group) slab, no affine.
/// `inv_std`: when non-null, receives 1/σ per slab (n·groups entries; the
/// graph backward needs it); plans pass nullptr.
void group_normalize_into(const Tensor& x, int64_t groups, float eps,
                          Tensor& out, float* inv_std);

/// argmax: when non-null, receives the flat input index of each max
/// (graph path feeds its backward); plans pass nullptr.
void maxpool2d_forward_into(const Tensor& x, int64_t kernel, int64_t stride,
                            Tensor& out, int64_t* argmax);
void maxpool1d_forward_into(const Tensor& x, int64_t kernel, int64_t stride,
                            Tensor& out, int64_t* argmax);
void avgpool2d_forward_into(const Tensor& x, int64_t kernel, int64_t stride,
                            Tensor& out);
/// Global average pool over `spatial` trailing elements per (n, c).
void global_avg_pool_into(const Tensor& x, int64_t spatial, Tensor& out);
void upsample_nearest2x_into(const Tensor& x, Tensor& out);

}  // namespace ripple::autograd
