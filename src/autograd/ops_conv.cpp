// Convolution, pooling and resampling ops.
//
// Convolution forwards lower to GEMM per sample: weights are packed once
// per call (PackedGemmA) — or fetched from the serving session's frozen
// PackedACache when one is installed — and reused across the whole batch,
// and therefore across all T folded Monte-Carlo replicas. One parallel_for
// splits the batch into contiguous sample ranges, one per pool
// participant; each participant im2cols a sample into its own workspace
// slot and runs a single-threaded packed GEMM straight into that sample's
// [Cout, OA] output rows, with the per-channel bias fused into the GEMM
// epilogue. The patch matrix is recomputed in the backward pass instead of
// cached, trading a little compute for a much smaller autograd graph
// footprint.
//
// The forward arithmetic lives in the `*_forward_into` kernels (lowered.h)
// shared with the compiled execution plans; the graph ops here call the same
// kernels and append a TraceStep when a recorder is active.
#include <algorithm>
#include <cstring>
#include <limits>

#include "autograd/lowered.h"
#include "autograd/ops.h"
#include "deploy/exec_backend.h"
#include "deploy/trace.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"
#include "tensor/threadpool.h"

namespace ripple::autograd {

void ConvWorkspace::ensure(int64_t n, int64_t ck, int64_t oa) {
  const size_t parts = static_cast<size_t>(ThreadPool::global().size() + 1);
  if (slots.size() < parts) slots.resize(parts);
  const size_t cols = static_cast<size_t>(ck * oa);
  const size_t bpack = static_cast<size_t>(gemm_nn_prepacked_scratch(oa, ck));
  for (size_t c = 0; c < std::min(parts, static_cast<size_t>(n)); ++c) {
    if (slots[c].cols.size() < cols) slots[c].cols.resize(cols);
    if (slots[c].bpack.size() < bpack) slots[c].bpack.resize(bpack);
  }
}

namespace {

/// The lowering shared by conv1d and conv2d: one parallel_for over
/// contiguous sample ranges, one range (chunk id) per pool participant.
/// Each sample is im2col'd into the chunk's workspace slot and multiplied
/// by the packed weights straight into its [Cout, OA] output rows, bias
/// fused. `im2col(s, cols)` writes sample s's [CK, OA] patch matrix.
template <class Im2col>
void lower_conv(int64_t n, int64_t cout, int64_t ck, int64_t oa,
                const float* w, const float* bias, ConvWorkspace& ws,
                float* out, const Im2col& im2col) {
  if (n <= 0) return;
  // Pack-cache and backend scopes are thread-local: resolve both here, on
  // the calling thread, before any worker runs.
  PackedGemmA pw_local;
  const PackedGemmA& pw = pack_gemm_a_cached(cout, ck, w, pw_local);
  GemmEpilogue ep;
  ep.row_bias = bias;
  deploy::ExecutionBackend* backend = deploy::active_exec_backend();
  ws.ensure(n, ck, oa);
  const auto lower = [&](int64_t s, ConvWorkspace::Slot& slot, bool offer) {
    float* cols = slot.cols.data();
    im2col(s, cols);
    float* os = out + s * cout * oa;
    std::memset(os, 0, sizeof(float) * static_cast<size_t>(cout * oa));
    if (offer && backend->conv_cols(cout, oa, ck, w, cols, os, bias))
      return true;
    gemm_nn_prepacked(pw, oa, cols, oa, os, oa, ep, slot.bpack.data());
    return false;
  };
  // A serving session's execution backend may claim the block (int8,
  // crossbar-mapped convs). Backends decide per weight, never per column,
  // and record on first use, so the calling thread lowers sample 0 alone:
  // that call settles the claim and keeps recording single-threaded.
  int64_t first = 0;
  bool claimed = false;
  if (backend != nullptr) {
    claimed = lower(0, ws.slots[0], /*offer=*/true);
    first = 1;
  }
  const int64_t rest = n - first;
  const int64_t parts =
      std::min(static_cast<int64_t>(ws.slots.size()), rest);
  parallel_for(parts, [&](int64_t c0, int64_t c1) {
    for (int64_t c = c0; c < c1; ++c) {
      ConvWorkspace::Slot& slot = ws.slots[static_cast<size_t>(c)];
      const int64_t s1 = first + (c + 1) * rest / parts;
      for (int64_t s = first + c * rest / parts; s < s1; ++s)
        lower(s, slot, claimed);
    }
  }, /*grain=*/1);
}

}  // namespace

void conv2d_forward_into(const Tensor& x, const Tensor& w, const float* bias,
                         int64_t stride, int64_t pad, ConvWorkspace& ws,
                         Tensor& out) {
  const int64_t cin = x.dim(1);
  const int64_t h = x.dim(2);
  const int64_t wd = x.dim(3);
  const int64_t kh = w.dim(2);
  const int64_t kw = w.dim(3);
  const float* px = x.data();
  lower_conv(x.dim(0), w.dim(0), cin * kh * kw, out.dim(2) * out.dim(3),
             w.data(), bias, ws, out.data(), [&](int64_t s, float* cols) {
               im2col_2d(px + s * cin * h * wd, cin, h, wd, kh, kw, stride,
                         pad, cols);
             });
}

void conv1d_forward_into(const Tensor& x, const Tensor& w, const float* bias,
                         int64_t stride, int64_t pad, ConvWorkspace& ws,
                         Tensor& out) {
  const int64_t cin = x.dim(1);
  const int64_t l = x.dim(2);
  const int64_t k = w.dim(2);
  const float* px = x.data();
  lower_conv(x.dim(0), w.dim(0), cin * k, out.dim(2), w.data(), bias, ws,
             out.data(), [&](int64_t s, float* cols) {
               im2col_1d(px + s * cin * l, cin, l, k, stride, pad, cols);
             });
}

void maxpool2d_forward_into(const Tensor& x, int64_t kernel, int64_t stride,
                            Tensor& out, int64_t* argmax) {
  const int64_t n = x.dim(0);
  const int64_t c = x.dim(1);
  const int64_t h = x.dim(2);
  const int64_t w = x.dim(3);
  const int64_t oh = out.dim(2);
  const int64_t ow = out.dim(3);
  const float* px = x.data();
  float* po = out.data();
  int64_t oi = 0;
  for (int64_t i = 0; i < n * c; ++i) {
    const float* plane = px + i * h * w;
    for (int64_t oy = 0; oy < oh; ++oy)
      for (int64_t ox = 0; ox < ow; ++ox, ++oi) {
        float best = -std::numeric_limits<float>::infinity();
        int64_t best_idx = 0;
        for (int64_t dy = 0; dy < kernel; ++dy)
          for (int64_t dx = 0; dx < kernel; ++dx) {
            const int64_t iy = oy * stride + dy;
            const int64_t ix = ox * stride + dx;
            if (iy >= h || ix >= w) continue;
            const float v = plane[iy * w + ix];
            if (v > best) {
              best = v;
              best_idx = i * h * w + iy * w + ix;
            }
          }
        po[oi] = best;
        if (argmax != nullptr) argmax[oi] = best_idx;
      }
  }
}

void maxpool1d_forward_into(const Tensor& x, int64_t kernel, int64_t stride,
                            Tensor& out, int64_t* argmax) {
  const int64_t n = x.dim(0);
  const int64_t c = x.dim(1);
  const int64_t l = x.dim(2);
  const int64_t ol = out.dim(2);
  const float* px = x.data();
  float* po = out.data();
  int64_t oi = 0;
  for (int64_t i = 0; i < n * c; ++i) {
    const float* line = px + i * l;
    for (int64_t ox = 0; ox < ol; ++ox, ++oi) {
      float best = -std::numeric_limits<float>::infinity();
      int64_t best_idx = 0;
      for (int64_t dx = 0; dx < kernel; ++dx) {
        const int64_t ix = ox * stride + dx;
        if (ix >= l) continue;
        if (line[ix] > best) {
          best = line[ix];
          best_idx = i * l + ix;
        }
      }
      po[oi] = best;
      if (argmax != nullptr) argmax[oi] = best_idx;
    }
  }
}

void avgpool2d_forward_into(const Tensor& x, int64_t kernel, int64_t stride,
                            Tensor& out) {
  const int64_t n = x.dim(0);
  const int64_t c = x.dim(1);
  const int64_t h = x.dim(2);
  const int64_t w = x.dim(3);
  const int64_t oh = out.dim(2);
  const int64_t ow = out.dim(3);
  const float inv_area = 1.0f / static_cast<float>(kernel * kernel);
  const float* px = x.data();
  float* po = out.data();
  int64_t oi = 0;
  for (int64_t i = 0; i < n * c; ++i) {
    const float* plane = px + i * h * w;
    for (int64_t oy = 0; oy < oh; ++oy)
      for (int64_t ox = 0; ox < ow; ++ox, ++oi) {
        double acc = 0.0;
        for (int64_t dy = 0; dy < kernel; ++dy)
          for (int64_t dx = 0; dx < kernel; ++dx) {
            const int64_t iy = oy * stride + dy;
            const int64_t ix = ox * stride + dx;
            if (iy < h && ix < w) acc += plane[iy * w + ix];
          }
        po[oi] = static_cast<float>(acc) * inv_area;
      }
  }
}

void global_avg_pool_into(const Tensor& x, int64_t spatial, Tensor& out) {
  const int64_t rows = x.dim(0) * x.dim(1);
  const float inv = 1.0f / static_cast<float>(spatial);
  const float* px = x.data();
  float* po = out.data();
  for (int64_t i = 0; i < rows; ++i) {
    double acc = 0.0;
    for (int64_t k = 0; k < spatial; ++k) acc += px[i * spatial + k];
    po[i] = static_cast<float>(acc) * inv;
  }
}

void upsample_nearest2x_into(const Tensor& x, Tensor& out) {
  const int64_t n = x.dim(0);
  const int64_t c = x.dim(1);
  const int64_t h = x.dim(2);
  const int64_t w = x.dim(3);
  const float* px = x.data();
  float* po = out.data();
  for (int64_t i = 0; i < n * c; ++i) {
    const float* plane = px + i * h * w;
    float* oplane = po + i * h * w * 4;
    for (int64_t y = 0; y < 2 * h; ++y)
      for (int64_t x2 = 0; x2 < 2 * w; ++x2)
        oplane[y * 2 * w + x2] = plane[(y / 2) * w + (x2 / 2)];
  }
}

namespace {

// The graph ops' conv workspace, kept per calling thread: repeated graph
// convs reuse warm slots instead of allocating (and page-faulting in) fresh
// ones every call. Compiled plans own theirs in the PlanContext.
ConvWorkspace& graph_conv_workspace() {
  thread_local ConvWorkspace ws;
  return ws;
}

// Appends a structured conv TraceStep when a recorder is active.
void trace_conv(deploy::OpTag tag, const Tensor& x, const Tensor& out,
                const Tensor& w, const Tensor& b, bool has_bias,
                int64_t stride, int64_t pad) {
  deploy::TraceRecorder* tr = deploy::active_trace();
  if (tr == nullptr) return;
  deploy::TraceStep ts;
  ts.tag = tag;
  ts.inputs = {x};
  ts.output = out;
  ts.w = w;
  if (has_bias) ts.b = b;
  ts.i0 = stride;
  ts.i1 = pad;
  tr->record(std::move(ts));
}

// Appends a closure-carried TraceStep (pool / resample ops).
void trace_fn(deploy::OpTag tag, const Tensor& x, const Tensor& out,
              deploy::StepFn fn) {
  deploy::TraceRecorder* tr = deploy::active_trace();
  if (tr == nullptr) return;
  deploy::TraceStep ts;
  ts.tag = tag;
  ts.inputs = {x};
  ts.output = out;
  ts.fn = std::move(fn);
  tr->record(std::move(ts));
}

}  // namespace

Variable conv2d(const Variable& x, const Variable& w, const Variable& b,
                int64_t stride, int64_t pad) {
  RIPPLE_CHECK(x.value().rank() == 4) << "conv2d input must be [N,C,H,W]";
  RIPPLE_CHECK(w.value().rank() == 4) << "conv2d weight must be [Cout,Cin,kh,kw]";
  const int64_t n = x.dim(0);
  const int64_t cin = x.dim(1);
  const int64_t h = x.dim(2);
  const int64_t wd = x.dim(3);
  const int64_t cout = w.dim(0);
  const int64_t kh = w.dim(2);
  const int64_t kw = w.dim(3);
  RIPPLE_CHECK(w.dim(1) == cin)
      << "conv2d: weight expects " << w.dim(1) << " input channels, input has "
      << cin;
  const int64_t oh = conv_out_size(h, kh, stride, pad);
  const int64_t ow = conv_out_size(wd, kw, stride, pad);
  const int64_t ck = cin * kh * kw;
  const int64_t oa = oh * ow;
  const bool has_bias = b.defined();
  if (has_bias) {
    RIPPLE_CHECK(b.value().rank() == 1 && b.dim(0) == cout)
        << "conv2d: bias shape " << shape_to_string(b.shape());
  }

  Tensor out = Tensor::empty({n, cout, oh, ow});
  conv2d_forward_into(x.value(), w.value(),
                      has_bias ? b.value().data() : nullptr, stride, pad,
                      graph_conv_workspace(), out);
  trace_conv(deploy::OpTag::kConv2d, x.value(), out, w.value(),
             has_bias ? b.value() : Tensor(), has_bias, stride, pad);

  Tensor xv = x.value();
  Tensor wv = w.value();
  std::vector<NodePtr> parents = {x.node(), w.node()};
  if (has_bias) parents.push_back(b.node());
  return make_op_node(
      std::move(out), std::move(parents),
      [xv, wv, n, cin, h, wd, cout, kh, kw, stride, pad, ck, oa,
       has_bias](Node& nd) {
        const float* pdy = nd.grad.data();
        const bool need_dx = nd.parents[0]->requires_grad;
        const bool need_dw = nd.parents[1]->requires_grad;
        Tensor dx = need_dx ? Tensor::zeros(xv.shape()) : Tensor();
        Tensor dw = need_dw ? Tensor::zeros(wv.shape()) : Tensor();
        Tensor cols({ck, oa});
        Tensor dcols({ck, oa});
        for (int64_t i = 0; i < n; ++i) {
          const float* dy_s = pdy + i * cout * oa;
          if (need_dw) {
            im2col_2d(xv.data() + i * cin * h * wd, cin, h, wd, kh, kw,
                      stride, pad, cols.data());
            // dW[Cout,CK] += dy_s[Cout,OA] · colsᵀ[OA,CK]
            gemm_nt(cout, ck, oa, dy_s, cols.data(), dw.data());
          }
          if (need_dx) {
            dcols.fill(0.0f);
            // dcols[CK,OA] = Wᵀ[CK,Cout] · dy_s[Cout,OA]
            gemm_tn(ck, oa, cout, wv.data(), dy_s, dcols.data());
            col2im_2d(dcols.data(), cin, h, wd, kh, kw, stride, pad,
                      dx.data() + i * cin * h * wd);
          }
        }
        if (need_dx) nd.parents[0]->accumulate_grad(dx);
        if (need_dw) nd.parents[1]->accumulate_grad(dw);
        if (has_bias && nd.parents[2]->requires_grad) {
          Tensor db({cout});
          float* pdb = db.data();
          for (int64_t i = 0; i < n; ++i)
            for (int64_t c = 0; c < cout; ++c) {
              const float* row = pdy + (i * cout + c) * oa;
              double acc = 0.0;
              for (int64_t k = 0; k < oa; ++k) acc += row[k];
              pdb[c] += static_cast<float>(acc);
            }
          nd.parents[2]->accumulate_grad(db);
        }
      },
      "conv2d");
}

Variable conv1d(const Variable& x, const Variable& w, const Variable& b,
                int64_t stride, int64_t pad) {
  RIPPLE_CHECK(x.value().rank() == 3) << "conv1d input must be [N,C,L]";
  RIPPLE_CHECK(w.value().rank() == 3) << "conv1d weight must be [Cout,Cin,k]";
  const int64_t n = x.dim(0);
  const int64_t cin = x.dim(1);
  const int64_t l = x.dim(2);
  const int64_t cout = w.dim(0);
  const int64_t k = w.dim(2);
  RIPPLE_CHECK(w.dim(1) == cin) << "conv1d channel mismatch";
  const int64_t ol = conv_out_size(l, k, stride, pad);
  const int64_t ck = cin * k;
  const bool has_bias = b.defined();
  if (has_bias) {
    RIPPLE_CHECK(b.value().rank() == 1 && b.dim(0) == cout)
        << "conv1d: bias shape " << shape_to_string(b.shape());
  }

  Tensor out = Tensor::empty({n, cout, ol});
  conv1d_forward_into(x.value(), w.value(),
                      has_bias ? b.value().data() : nullptr, stride, pad,
                      graph_conv_workspace(), out);
  trace_conv(deploy::OpTag::kConv1d, x.value(), out, w.value(),
             has_bias ? b.value() : Tensor(), has_bias, stride, pad);

  Tensor xv = x.value();
  Tensor wv = w.value();
  std::vector<NodePtr> parents = {x.node(), w.node()};
  if (has_bias) parents.push_back(b.node());
  return make_op_node(
      std::move(out), std::move(parents),
      [xv, wv, n, cin, l, cout, k, stride, pad, ck, ol, has_bias](Node& nd) {
        const float* pdy = nd.grad.data();
        const bool need_dx = nd.parents[0]->requires_grad;
        const bool need_dw = nd.parents[1]->requires_grad;
        Tensor dx = need_dx ? Tensor::zeros(xv.shape()) : Tensor();
        Tensor dw = need_dw ? Tensor::zeros(wv.shape()) : Tensor();
        Tensor cols({ck, ol});
        Tensor dcols({ck, ol});
        for (int64_t i = 0; i < n; ++i) {
          const float* dy_s = pdy + i * cout * ol;
          if (need_dw) {
            im2col_1d(xv.data() + i * cin * l, cin, l, k, stride, pad,
                      cols.data());
            gemm_nt(cout, ck, ol, dy_s, cols.data(), dw.data());
          }
          if (need_dx) {
            dcols.fill(0.0f);
            gemm_tn(ck, ol, cout, wv.data(), dy_s, dcols.data());
            col2im_1d(dcols.data(), cin, l, k, stride, pad,
                      dx.data() + i * cin * l);
          }
        }
        if (need_dx) nd.parents[0]->accumulate_grad(dx);
        if (need_dw) nd.parents[1]->accumulate_grad(dw);
        if (has_bias && nd.parents[2]->requires_grad) {
          Tensor db({cout});
          float* pdb = db.data();
          for (int64_t i = 0; i < n; ++i)
            for (int64_t c = 0; c < cout; ++c) {
              const float* row = pdy + (i * cout + c) * ol;
              double acc = 0.0;
              for (int64_t j = 0; j < ol; ++j) acc += row[j];
              pdb[c] += static_cast<float>(acc);
            }
          nd.parents[2]->accumulate_grad(db);
        }
      },
      "conv1d");
}

Variable maxpool2d(const Variable& x, int64_t kernel, int64_t stride) {
  RIPPLE_CHECK(x.value().rank() == 4) << "maxpool2d input must be [N,C,H,W]";
  const int64_t n = x.dim(0);
  const int64_t c = x.dim(1);
  const int64_t h = x.dim(2);
  const int64_t w = x.dim(3);
  const int64_t oh = conv_out_size(h, kernel, stride, /*pad=*/0);
  const int64_t ow = conv_out_size(w, kernel, stride, /*pad=*/0);
  Tensor out = Tensor::empty({n, c, oh, ow});
  auto argmax = std::make_shared<std::vector<int64_t>>(
      static_cast<size_t>(out.numel()));
  maxpool2d_forward_into(x.value(), kernel, stride, out, argmax->data());
  trace_fn(deploy::OpTag::kMaxPool2d, x.value(), out,
           [kernel, stride](const Tensor* const* ins, int, Tensor& o) {
             maxpool2d_forward_into(*ins[0], kernel, stride, o, nullptr);
           });
  Shape in_shape = x.shape();
  return make_op_node(
      std::move(out), {x.node()},
      [argmax, in_shape](Node& nd) {
        if (!nd.parents[0]->requires_grad) return;
        Tensor dx = Tensor::zeros(in_shape);
        float* pdx = dx.data();
        const float* pdy = nd.grad.data();
        for (int64_t i = 0; i < nd.grad.numel(); ++i)
          pdx[(*argmax)[static_cast<size_t>(i)]] += pdy[i];
        nd.parents[0]->accumulate_grad(dx);
      },
      "maxpool2d");
}

Variable maxpool1d(const Variable& x, int64_t kernel, int64_t stride) {
  RIPPLE_CHECK(x.value().rank() == 3) << "maxpool1d input must be [N,C,L]";
  const int64_t n = x.dim(0);
  const int64_t c = x.dim(1);
  const int64_t l = x.dim(2);
  const int64_t ol = conv_out_size(l, kernel, stride, /*pad=*/0);
  Tensor out = Tensor::empty({n, c, ol});
  auto argmax = std::make_shared<std::vector<int64_t>>(
      static_cast<size_t>(out.numel()));
  maxpool1d_forward_into(x.value(), kernel, stride, out, argmax->data());
  trace_fn(deploy::OpTag::kMaxPool1d, x.value(), out,
           [kernel, stride](const Tensor* const* ins, int, Tensor& o) {
             maxpool1d_forward_into(*ins[0], kernel, stride, o, nullptr);
           });
  Shape in_shape = x.shape();
  return make_op_node(
      std::move(out), {x.node()},
      [argmax, in_shape](Node& nd) {
        if (!nd.parents[0]->requires_grad) return;
        Tensor dx = Tensor::zeros(in_shape);
        float* pdx = dx.data();
        const float* pdy = nd.grad.data();
        for (int64_t i = 0; i < nd.grad.numel(); ++i)
          pdx[(*argmax)[static_cast<size_t>(i)]] += pdy[i];
        nd.parents[0]->accumulate_grad(dx);
      },
      "maxpool1d");
}

Variable avgpool2d(const Variable& x, int64_t kernel, int64_t stride) {
  RIPPLE_CHECK(x.value().rank() == 4) << "avgpool2d input must be [N,C,H,W]";
  const int64_t n = x.dim(0);
  const int64_t c = x.dim(1);
  const int64_t h = x.dim(2);
  const int64_t w = x.dim(3);
  const int64_t oh = conv_out_size(h, kernel, stride, /*pad=*/0);
  const int64_t ow = conv_out_size(w, kernel, stride, /*pad=*/0);
  const float inv_area = 1.0f / static_cast<float>(kernel * kernel);
  Tensor out = Tensor::empty({n, c, oh, ow});
  avgpool2d_forward_into(x.value(), kernel, stride, out);
  trace_fn(deploy::OpTag::kAvgPool2d, x.value(), out,
           [kernel, stride](const Tensor* const* ins, int, Tensor& o) {
             avgpool2d_forward_into(*ins[0], kernel, stride, o);
           });
  Shape in_shape = x.shape();
  return make_op_node(
      std::move(out), {x.node()},
      [in_shape, n, c, h, w, oh, ow, kernel, stride, inv_area](Node& nd) {
        if (!nd.parents[0]->requires_grad) return;
        Tensor dx = Tensor::zeros(in_shape);
        float* pdx = dx.data();
        const float* pdy = nd.grad.data();
        int64_t oi = 0;
        for (int64_t i = 0; i < n * c; ++i) {
          float* plane = pdx + i * h * w;
          for (int64_t oy = 0; oy < oh; ++oy)
            for (int64_t ox = 0; ox < ow; ++ox, ++oi) {
              const float g = pdy[oi] * inv_area;
              for (int64_t dy = 0; dy < kernel; ++dy)
                for (int64_t dx2 = 0; dx2 < kernel; ++dx2) {
                  const int64_t iy = oy * stride + dy;
                  const int64_t ix = ox * stride + dx2;
                  if (iy < h && ix < w) plane[iy * w + ix] += g;
                }
            }
        }
        nd.parents[0]->accumulate_grad(dx);
      },
      "avgpool2d");
}

namespace {

Variable global_avg_pool_impl(const Variable& x, int64_t spatial,
                              deploy::OpTag tag, const char* name) {
  const int64_t n = x.dim(0);
  const int64_t c = x.dim(1);
  const float inv = 1.0f / static_cast<float>(spatial);
  Tensor out = Tensor::empty({n, c});
  global_avg_pool_into(x.value(), spatial, out);
  trace_fn(tag, x.value(), out,
           [](const Tensor* const* ins, int, Tensor& o) {
             const Tensor& in = *ins[0];
             global_avg_pool_into(in, in.numel() / (in.dim(0) * in.dim(1)), o);
           });
  Shape in_shape = x.shape();
  return make_op_node(
      std::move(out), {x.node()},
      [in_shape, n, c, spatial, inv](Node& nd) {
        if (!nd.parents[0]->requires_grad) return;
        Tensor dx(in_shape);
        float* pdx = dx.data();
        const float* pdy = nd.grad.data();
        for (int64_t i = 0; i < n * c; ++i) {
          const float g = pdy[i] * inv;
          for (int64_t k = 0; k < spatial; ++k) pdx[i * spatial + k] = g;
        }
        nd.parents[0]->accumulate_grad(dx);
      },
      name);
}

}  // namespace

Variable global_avg_pool2d(const Variable& x) {
  RIPPLE_CHECK(x.value().rank() == 4) << "global_avg_pool2d needs [N,C,H,W]";
  return global_avg_pool_impl(x, x.dim(2) * x.dim(3), deploy::OpTag::kGap2d,
                              "global_avg_pool2d");
}

Variable global_avg_pool1d(const Variable& x) {
  RIPPLE_CHECK(x.value().rank() == 3) << "global_avg_pool1d needs [N,C,L]";
  return global_avg_pool_impl(x, x.dim(2), deploy::OpTag::kGap1d,
                              "global_avg_pool1d");
}

Variable upsample_nearest2x(const Variable& x) {
  RIPPLE_CHECK(x.value().rank() == 4) << "upsample_nearest2x needs [N,C,H,W]";
  const int64_t n = x.dim(0);
  const int64_t c = x.dim(1);
  const int64_t h = x.dim(2);
  const int64_t w = x.dim(3);
  Tensor out = Tensor::empty({n, c, h * 2, w * 2});
  upsample_nearest2x_into(x.value(), out);
  trace_fn(deploy::OpTag::kUpsample2x, x.value(), out,
           [](const Tensor* const* ins, int, Tensor& o) {
             upsample_nearest2x_into(*ins[0], o);
           });
  Shape in_shape = x.shape();
  return make_op_node(
      std::move(out), {x.node()},
      [in_shape, n, c, h, w](Node& nd) {
        if (!nd.parents[0]->requires_grad) return;
        Tensor dx = Tensor::zeros(in_shape);
        float* pdx = dx.data();
        const float* pdy = nd.grad.data();
        for (int64_t i = 0; i < n * c; ++i) {
          float* plane = pdx + i * h * w;
          const float* oplane = pdy + i * h * w * 4;
          for (int64_t y = 0; y < 2 * h; ++y)
            for (int64_t x2 = 0; x2 < 2 * w; ++x2)
              plane[(y / 2) * w + (x2 / 2)] += oplane[y * 2 * w + x2];
        }
        nd.parents[0]->accumulate_grad(dx);
      },
      "upsample_nearest2x");
}

}  // namespace ripple::autograd
