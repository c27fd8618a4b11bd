// Batched Monte-Carlo forward-pass utilities (tensor level).
//
// The Bayesian MC estimate needs T stochastic forward passes per input.
// Run serially, every pass pays the full per-pass overhead: weight
// transforms, GEMM weight packing, graph-node and output allocations,
// per-layer dispatch. The batched path folds the T samples into the batch
// dimension instead: the input batch [N, ...] is replicated once to
// [T·N, ...] (replica-major: rows [r·N, (r+1)·N) belong to replica r), ONE
// forward pass runs, and only the stochastic layers (InvertedNorm affine
// dropout) diverge per replica via per-replica masks. im2col, GEMM packing
// and conv weights are amortized across all T samples.
//
// Determinism contract: each InvertedNorm layer draws its masks from an
// independent per-layer stream seeded with layer_stream_seed(base, i). A
// layer then consumes mask pairs in replica order r = 0..T-1 — exactly the
// order T serial passes would consume them — so the batched and serial
// paths sample identical masks for the same base seed. The conv lowering
// runs the same per-sample GEMM at any batch width and GEMM results do not
// depend on tile boundaries, so the ResNet agrees bit for bit
// (tests/serve_test.cpp); the model-level tests in tests/mc_batch_test.cpp
// assert 1e-4 agreement. serve::InferenceSession is the model-level driver
// (ExecutionPolicy::kBatched vs kSerial; session.mc_outputs returns the
// stacked outputs).
#pragma once

#include <cstdint>

#include "tensor/tensor.h"

namespace ripple::fault {

/// Tiles x [N, ...] t times along dim 0 -> [t·N, ...], replica-major.
Tensor replicate_batch(const Tensor& x, int t);

/// Mean over the t replica blocks of a stacked [t·N, ...] tensor -> [N, ...].
Tensor replica_mean(const Tensor& stacked, int t);

/// Per-element mean and across-replica variance (population, E[y²]−E[y]²,
/// clamped at 0 against rounding) of a stacked [t·N, ...] tensor.
struct ReplicaMoments {
  Tensor mean;      // [N, ...]
  Tensor variance;  // [N, ...]
};
ReplicaMoments replica_moments(const Tensor& stacked, int t);

/// Deterministic per-layer mask-stream seed for batched/serial MC parity.
uint64_t layer_stream_seed(uint64_t base_seed, size_t layer_index);

}  // namespace ripple::fault
