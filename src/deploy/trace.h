// Forward-trace recording for `deploy::compile`.
//
// A TraceRecorder is installed thread-locally (TraceScope) around one graph
// forward run inside the exact serving environment (stream context, pack
// cache, execution backend). Every autograd op appends one TraceStep on its
// way out: the op tag, the input/output tensor *handles* (retained, so
// data-pointer identity stays unambiguous for the whole trace), structured
// attributes for the GEMM-backed ops, and — for everything else — a
// shape-driven executor closure that reproduces the op's forward arithmetic
// exactly. deploy::compile_trace (plan.h) turns the step list into a static
// ExecutionPlan.
//
// Hooks are a single thread-local null check when no recorder is active;
// the serving fast path never pays for them.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace ripple {
struct PackedGemmB;
}  // namespace ripple

namespace ripple::deploy {

enum class OpTag {
  kNone,
  // Elementwise / shape ops carried by executor closures.
  kAdd,
  kSub,
  kMul,
  kMulScalar,
  kAddScalar,
  kRelu,
  kSigmoid,
  kTanh,
  kSign,
  kPact,
  kFakeQuant,
  kReshape,
  kConcat,
  kSliceCols,
  kSelectTime,
  kMulChannel,
  kAddChannel,
  kMulChannelRep,
  kAddChannelRep,
  kApplyMask,
  kGroupNorm,
  kBatchNormEval,
  kMaxPool2d,
  kMaxPool1d,
  kAvgPool2d,
  kGap2d,
  kGap1d,
  kUpsample2x,
  // Structured GEMM-backed ops (weights carried as tensor attributes).
  kLinear,
  kConv2d,
  kConv1d,
  // Fusion-synthesized tags (never recorded, only emitted by the compiler).
  kReplicate,   // uniform [n,...] -> stacked [t·n,...] block copy
  kAffine,      // per-replica channel affine: out = x·γ[r] + β[r]
  kBnAffine,    // ((x − μ)·s)·γ + β, all per-channel constants
  kLstmGates,   // fused LSTM gate block over two gate GEMM halves
};

/// Executor signature shared by trace closures and plan steps. `ins` are
/// borrowed tensors in operand order; `out` is pre-shaped and fully
/// overwritten. Closures read every dimension from the tensors themselves
/// (never capture batch sizes), so the same closure runs at reduced
/// uniform-row shapes after the lazy-replication transform.
using StepFn =
    std::function<void(const Tensor* const* ins, int n_ins, Tensor& out)>;

struct TraceStep {
  OpTag tag = OpTag::kNone;
  std::vector<Tensor> inputs;  // retained handles (pointer identity)
  Tensor output;
  StepFn fn;          // closure executor (empty for structured ops)
  Tensor w, b;        // kLinear/kConv*: weight + optional bias;
                      // kBatchNormEval: running mean + precomputed scale
  int64_t i0 = 0;     // conv stride / slice begin / pool kernel
  int64_t i1 = 0;     // conv pad / slice end / pool stride
  // kLinear: the pack cache's weight panels when the traced pass had them,
  // shared (never copied) with the compiled step.
  std::shared_ptr<const PackedGemmB> packed_w;
};

class TraceRecorder {
 public:
  void record(TraceStep step) {
    if (!aborted_) steps_.push_back(std::move(step));
  }
  /// Mark the trace unusable (op with no stable compiled form, e.g. a
  /// training-mode batch norm). compile falls back to the graph path.
  void abort(std::string reason) {
    if (!aborted_) {
      aborted_ = true;
      reason_ = std::move(reason);
    }
  }
  /// The stacked forward input (set by the session before the model runs);
  /// the compiler maps it to the plan's input buffer.
  void set_input(const Tensor& stacked) { input_ = stacked; }

  bool aborted() const { return aborted_; }
  const std::string& abort_reason() const { return reason_; }
  const Tensor& input() const { return input_; }
  std::vector<TraceStep>& steps() { return steps_; }

 private:
  std::vector<TraceStep> steps_;
  Tensor input_;
  bool aborted_ = false;
  std::string reason_;
};

/// The recorder the current thread's forward pass feeds, or nullptr.
TraceRecorder* active_trace();

/// RAII installer; nesting is not supported (inner scope aborts the outer
/// recorder — compile never nests in practice).
class TraceScope {
 public:
  explicit TraceScope(TraceRecorder& recorder);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceRecorder* prev_;
};

}  // namespace ripple::deploy
