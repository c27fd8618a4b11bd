// Pluggable execution backend behind the serving session's forwards.
//
// serve::InferenceSession routes the dense compute of every forward pass —
// linear layers (autograd::linear) and the im2col-lowered convolutions
// (autograd::conv1d/conv2d) — through a thread-locally installed
// ExecutionBackend. A backend may claim an op (return true, having written
// the output) or decline it (return false → the digital fp32 kernels run).
// The default substrates kFp32/kQuantSim never install a backend: their
// difference is in how the weights are materialized at artifact-open time,
// not in how the GEMM executes. kCrossbar installs CrossbarBackend
// (deploy/crossbar_backend.h).
//
// Lifecycle mirrors tensor/gemm.h's PackedACache: the session's one-time
// warm-up pass (held under an exclusive lock, single-threaded) lets the
// backend record per-layer state (e.g. program a crossbar per weight
// matrix); freeze() then makes lookups read-only so any number of serving
// threads may run concurrently. invalidate() — called from
// InferenceSession::invalidate_packed_weights() after in-place weight
// mutation (fault injection) — drops the recorded state so the next
// warm-up rebuilds it from the mutated weights.
#pragma once

#include "deploy/backend_kind.h"
#include "tensor/tensor.h"

namespace ripple::deploy {

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  virtual const char* name() const = 0;

  /// y[N,Fout] = x[N,Fin] · wᵀ + bias. `bias` may be null. `out` is
  /// preallocated [N,Fout]; return true after filling it, false to decline
  /// (the caller then runs the digital GEMM).
  virtual bool linear(const Tensor& x, const Tensor& w, const float* bias,
                      Tensor& out) {
    (void)x;
    (void)w;
    (void)bias;
    (void)out;
    return false;
  }

  /// Fused epilogue of a linear layer: optional ReLU, then the per-replica
  /// channel affine (γ/β are [replicas, Fout]; row i belongs to replica
  /// i / (N / replicas)). The compiled-plan executor offers backends the
  /// whole fused step (deploy/plan.cpp folds a following kAffine into its
  /// producer); claiming it must reproduce the unfused sequence
  /// bit-exactly — one rounded multiply then one rounded add per element —
  /// or the plan's verification gate rejects the plan.
  struct LinearEpilogue {
    const float* bias = nullptr;
    const Tensor* gamma = nullptr;
    const Tensor* beta = nullptr;
    bool relu = false;
  };

  /// linear() plus a fused epilogue. The default declines anything the
  /// plain hook can't express and otherwise forwards to linear(), so
  /// existing backends keep their exact behavior.
  virtual bool linear_ex(const Tensor& x, const Tensor& w,
                         const LinearEpilogue& ep, Tensor& out) {
    if (ep.gamma != nullptr || ep.relu) return false;
    return linear(x, w, ep.bias, out);
  }

  /// The im2col-lowered convolution block of one sample:
  ///   stage[Cout, L] = W[Cout, CK] · cols[CK, L]  (+ row_bias[c] per row).
  /// `w` is the conv weight's flat [Cout, CK] data, `stage` is the
  /// sample's output rows, zeroed by the caller. Return semantics as
  /// linear(), with one more rule: the decision may depend on the weight,
  /// never on the columns. The lowering offers sample 0 on the calling
  /// thread and, only if that is claimed, the remaining samples from pool
  /// workers concurrently.
  virtual bool conv_cols(int64_t cout, int64_t l, int64_t ck, const float* w,
                         const float* cols, float* stage,
                         const float* row_bias) {
    (void)cout;
    (void)l;
    (void)ck;
    (void)w;
    (void)cols;
    (void)stage;
    (void)row_bias;
    return false;
  }

  /// Modeled hardware serving time in microseconds for one input row
  /// through everything this backend has compiled — 0 for digital
  /// backends, the TileCost-derived ADC conversion time for the crossbar.
  /// Only meaningful once frozen (the compiled set is complete); callers
  /// record it into BatcherCounters::analog_latency so analog latency
  /// percentiles surface in fleet metrics without timing the simulation.
  virtual double modeled_analog_us_per_row() const { return 0.0; }

  /// Ends the single-threaded recording phase; lookups must be lock-free
  /// and read-only afterwards.
  virtual void freeze() {}
  /// Drops recorded per-layer state (weights mutated in place); recording
  /// re-opens on the next warm-up.
  virtual void invalidate() {}
};

/// The backend installed on this thread (nullptr outside any scope).
ExecutionBackend* active_exec_backend();

/// RAII: installs `backend` (may be null = no routing) for the current
/// thread, restoring the previous one on destruction.
class ExecBackendScope {
 public:
  explicit ExecBackendScope(ExecutionBackend* backend);
  ~ExecBackendScope();
  ExecBackendScope(const ExecBackendScope&) = delete;
  ExecBackendScope& operator=(const ExecBackendScope&) = delete;

 private:
  ExecutionBackend* previous_;
};

}  // namespace ripple::deploy
