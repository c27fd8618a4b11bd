// Dense linear-algebra ops: matmul and the fused linear layer op.
#include <cstring>

#include "autograd/lowered.h"
#include "autograd/ops.h"
#include "deploy/exec_backend.h"
#include "deploy/trace.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace ripple::autograd {

Variable matmul(const Variable& a, const Variable& b) {
  Tensor out = ripple::matmul(a.value(), b.value());
  Tensor av = a.value();
  Tensor bv = b.value();
  return make_op_node(
      std::move(out), {a.node(), b.node()},
      [av, bv](Node& n) {
        const int64_t m = av.dim(0);
        const int64_t k = av.dim(1);
        const int64_t nn = bv.dim(1);
        if (n.parents[0]->requires_grad) {
          // dA = dC · Bᵀ
          Tensor da({m, k});
          gemm_nt(m, k, nn, n.grad.data(), bv.data(), da.data());
          n.parents[0]->accumulate_grad(da);
        }
        if (n.parents[1]->requires_grad) {
          // dB = Aᵀ · dC
          Tensor db({k, nn});
          gemm_tn(k, nn, m, av.data(), n.grad.data(), db.data());
          n.parents[1]->accumulate_grad(db);
        }
      },
      "matmul");
}

void linear_forward_into(const Tensor& x, const Tensor& w, const float* bias,
                         Tensor& out, const PackedGemmB* packed) {
  const int64_t n = x.dim(0);
  const int64_t fin = x.dim(1);
  const int64_t fout = w.dim(0);
  // The GEMM kernels accumulate into C; start from zero like the graph op's
  // zero-filled output tensor always did.
  std::memset(out.data(), 0, sizeof(float) * static_cast<size_t>(out.numel()));
  // out = x · wᵀ + b, bias fused into the GEMM epilogue (per-column: the
  // feature axis of the [N, Fout] output).
  GemmEpilogue ep;
  ep.col_bias = bias;
  deploy::ExecutionBackend* backend = deploy::active_exec_backend();
  if (backend != nullptr && backend->linear(x, w, bias, out)) {
    // A serving session routed this layer to its execution substrate
    // (e.g. the IMC crossbar); `out` holds that substrate's result.
  } else if (packed != nullptr && packed->nr == gemm_kernel_nr()) {
    gemm_nt_prepacked(n, x.data(), *packed, out.data(), ep);
  } else if (active_pack_cache() != nullptr) {
    // Serving path: the session's frozen cache holds the weight panels, so
    // coalesced LSTM/MLP batches stop re-packing B every call. Identical
    // arithmetic to the gemm_nt_ex path (packing is pure data movement).
    PackedGemmB local;
    const PackedGemmB& pw = pack_gemm_b_nt_cached(fout, fin, w.data(), local);
    gemm_nt_prepacked(n, x.data(), pw, out.data(), ep);
  } else {
    gemm_nt_ex(n, fout, fin, x.data(), w.data(), out.data(), ep);
  }
}

Variable linear(const Variable& x, const Variable& w, const Variable& b) {
  RIPPLE_CHECK(x.value().rank() == 2) << "linear input must be [N,Fin], got "
                                      << shape_to_string(x.shape());
  RIPPLE_CHECK(w.value().rank() == 2) << "linear weight must be [Fout,Fin]";
  const int64_t n = x.dim(0);
  const int64_t fin = x.dim(1);
  const int64_t fout = w.dim(0);
  RIPPLE_CHECK(w.dim(1) == fin)
      << "linear: weight " << shape_to_string(w.shape())
      << " incompatible with input " << shape_to_string(x.shape());
  const bool has_bias = b.defined();
  if (has_bias) {
    RIPPLE_CHECK(b.value().rank() == 1 && b.dim(0) == fout)
        << "linear: bias shape " << shape_to_string(b.shape());
  }

  Tensor out = Tensor::empty({n, fout});
  linear_forward_into(x.value(), w.value(),
                      has_bias ? b.value().data() : nullptr, out);

  if (deploy::TraceRecorder* tr = deploy::active_trace()) {
    deploy::TraceStep ts;
    ts.tag = deploy::OpTag::kLinear;
    ts.inputs = {x.value()};
    ts.output = out;
    ts.w = w.value();
    if (has_bias) ts.b = b.value();
    if (const PackedACache* cache = active_pack_cache())
      ts.packed_w = cache->share_b(w.value().data(), fout, fin);
    tr->record(std::move(ts));
  }

  Tensor xv = x.value();
  Tensor wv = w.value();
  std::vector<NodePtr> parents = {x.node(), w.node()};
  if (has_bias) parents.push_back(b.node());
  return make_op_node(
      std::move(out), std::move(parents),
      [xv, wv, n, fin, fout, has_bias](Node& nd) {
        const Tensor& dy = nd.grad;  // [N, Fout]
        if (nd.parents[0]->requires_grad) {
          // dX = dY · W
          Tensor dx({n, fin});
          gemm_nn(n, fin, fout, dy.data(), wv.data(), dx.data());
          nd.parents[0]->accumulate_grad(dx);
        }
        if (nd.parents[1]->requires_grad) {
          // dW = dYᵀ · X
          Tensor dw({fout, fin});
          gemm_tn(fout, fin, n, dy.data(), xv.data(), dw.data());
          nd.parents[1]->accumulate_grad(dw);
        }
        if (has_bias && nd.parents[2]->requires_grad) {
          Tensor db({fout});
          float* pdb = db.data();
          const float* pdy = dy.data();
          for (int64_t i = 0; i < n; ++i)
            for (int64_t j = 0; j < fout; ++j) pdb[j] += pdy[i * fout + j];
          nd.parents[2]->accumulate_grad(db);
        }
      },
      "linear");
}

}  // namespace ripple::autograd
