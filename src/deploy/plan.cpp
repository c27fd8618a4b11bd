// Trace -> ExecutionPlan compiler and the plan executor. See plan.h for the
// pass pipeline overview. Bit-exactness notes: every fused kernel below
// reproduces the graph ops' per-element rounding sequence (one rounding per
// elementary op, no reassociation); the build targets baseline x86-64 where
// the compiler cannot contract mul+add into FMA, and the session verifies
// every compiled plan against the graph oracle by memcmp before installing
// it, so any toolchain that did change rounding would only cost the
// compiled path, never correctness.
#include "deploy/plan.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "deploy/exec_backend.h"
#include "tensor/check.h"
#include "tensor/gemm.h"
#include "tensor/threadpool.h"
#include "tensor/vmath.h"

namespace ripple::deploy {

namespace {

// ---------------------------------------------------------------------------
// Fused-step kernels.

// The elementwise kernels below split their rows (or copies) over the
// pool: every output element is written by exactly one index with the same
// expression, so any split gives the same bits. Work is the bytes an index
// reads and writes.

// Uniform [n, ...] -> stacked [t·n, ...]: T contiguous copies of the block.
void replicate_into(const Tensor& x, Tensor& out) {
  const int64_t block = x.numel();
  const int64_t reps = out.numel() / block;
  const float* src = x.data();
  float* dst = out.data();
  parallel_for(reps, 2 * block * int64_t{sizeof(float)},
               [&](int64_t r0, int64_t r1) {
                 for (int64_t r = r0; r < r1; ++r)
                   std::memcpy(dst + r * block, src,
                               sizeof(float) * static_cast<size_t>(block));
               });
}

// Per-replica channel affine: out = x·γ[rep] + β[rep], γ/β [R, C]. When x
// has fewer rows than out (R = T, x uniform) the replication is fused: row i
// of out reads sample row i % (rows/R). Safe in place (x == out) in the
// non-expanding case, which is how GEMM epilogues use it. The mul sweep and
// the add sweep are separate loops so the rounding matches the two graph ops
// (mul_channel[_replicated] then add_channel[_replicated]) exactly.
void affine_into(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 Tensor& out) {
  const int64_t rows = out.dim(0);
  const int64_t r = gamma.dim(0);
  const int64_t c = gamma.dim(1);
  const int64_t inner = out.numel() / (rows * c);
  const int64_t rows_per_rep = rows / r;
  const int64_t rowsz = c * inner;
  const bool expand = x.dim(0) != rows;
  const float* px = x.data();
  const float* pg = gamma.data();
  const float* pb = beta.data();
  float* po = out.data();
  // Work: two read-and-write sweeps over the row.
  parallel_for(rows, 4 * rowsz * int64_t{sizeof(float)},
               [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const int64_t rep = i / rows_per_rep;
      const float* src = px + (expand ? i % rows_per_rep : i) * rowsz;
      float* dst = po + i * rowsz;
      const float* gr = pg + rep * c;
      const float* br = pb + rep * c;
      if (inner == 1) {
        // 2-D case: the channel axis is contiguous, so the two rounding
        // sweeps (mul, then add — same sequence as below) auto-vectorize.
        for (int64_t ch = 0; ch < c; ++ch) dst[ch] = src[ch] * gr[ch];
        for (int64_t ch = 0; ch < c; ++ch) dst[ch] += br[ch];
        continue;
      }
      for (int64_t ch = 0; ch < c; ++ch) {
        const float g = gr[ch];
        float* d = dst + ch * inner;
        const float* s = src + ch * inner;
        for (int64_t k = 0; k < inner; ++k) d[k] = s[k] * g;
      }
      for (int64_t ch = 0; ch < c; ++ch) {
        const float b = br[ch];
        float* d = dst + ch * inner;
        for (int64_t k = 0; k < inner; ++k) d[k] += b;
      }
    }
  });
}

// Eval batch-norm + channel affine: ((x − μ[c])·s[c])·γ[c] + β[c], each
// elementary op rounded separately, matching batch_normalize -> mul_channel
// -> add_channel.
void bn_affine_into(const Tensor& x, const Tensor& mean, const Tensor& scale,
                    const Tensor& gamma, const Tensor& beta, Tensor& out) {
  const int64_t rows = out.dim(0);
  const int64_t c = out.dim(1);
  const int64_t inner = out.numel() / (rows * c);
  const float* px = x.data();
  const float* pm = mean.data();
  const float* ps = scale.data();
  const float* pg = gamma.data();
  const float* pb = beta.data();
  float* po = out.data();
  parallel_for(rows, 2 * c * inner * int64_t{sizeof(float)},
               [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      for (int64_t ch = 0; ch < c; ++ch) {
        const int64_t base = (i * c + ch) * inner;
        const float m = pm[ch];
        const float s = ps[ch];
        const float g = pg[ch];
        const float b = pb[ch];
        for (int64_t k = 0; k < inner; ++k) {
          const float v = (px[base + k] - m) * s;
          const float w = v * g;
          po[base + k] = w + b;
        }
      }
    }
  });
}

// Fused LSTM gate block over the two gate-GEMM halves g1 = x·Wihᵀ + b_ih and
// g2 = h·Whhᵀ + b_hh (both [n, 4h], gate order i|f|g|o):
//   v = g1 + g2;  i,f,o = σ(v);  g = tanh(v)
//   c' = (f·c) + (i·g);  h' = o·tanh(c')
// Replaces 13 graph steps (add, 4 slices, 4 activations, 3 muls, add) with
// identical per-element arithmetic.
//
// One sweep de-interleaves v into four contiguous gate planes of n·h
// floats, so each activation is one σ/tanh call over all rows and the
// cell update is a flat loop: at small hidden sizes a per-row call would
// leave every element in a short vector tail. The planes and tanh(c')
// live in `ws` (5·n·h floats, owned by the PlanContext). The σ/tanh
// kernels (tensor/vmath.h) give every element the same IEEE operation
// sequence however the span is cut, so the step still matches the
// graph's whole-tensor sigmoid/tanh ops bit for bit.
void lstm_gates_into(const Tensor& g1, const Tensor& g2, const Tensor& c_prev,
                     int64_t hidden, float* ws, Tensor& h_out,
                     Tensor& c_out) {
  const int64_t rows = h_out.dim(0);
  const int64_t cells = rows * hidden;
  const float* p1 = g1.data();
  const float* p2 = g2.data();
  const float* pc = c_prev.data();
  float* ph = h_out.data();
  float* pn = c_out.data();
  float* gi = ws;
  float* gf = gi + cells;
  float* gg = gf + cells;
  float* go = gg + cells;
  float* tc = go + cells;
  float* const planes[4] = {gi, gf, gg, go};
  for (int64_t r = 0; r < rows; ++r) {
    for (int k = 0; k < 4; ++k) {
      const float* a = p1 + (4 * r + k) * hidden;
      const float* b = p2 + (4 * r + k) * hidden;
      float* v = planes[k] + r * hidden;
      for (int64_t j = 0; j < hidden; ++j) v[j] = a[j] + b[j];
    }
  }
  vsigmoid(gi, gi, cells);
  vsigmoid(gf, gf, cells);
  vtanh(gg, gg, cells);
  vsigmoid(go, go, cells);
  for (int64_t j = 0; j < cells; ++j) {
    const float fc = gf[j] * pc[j];
    const float ig = gi[j] * gg[j];
    pn[j] = fc + ig;
  }
  vtanh(pn, tc, cells);
  for (int64_t j = 0; j < cells; ++j) ph[j] = go[j] * tc[j];
}

// True when the tensor is T identical contiguous blocks (bitwise).
bool block_uniform(const Tensor& c, int64_t reps) {
  if (reps <= 1) return true;
  if (c.numel() <= 0 || c.numel() % reps != 0) return false;
  const int64_t block = c.numel() / reps;
  const float* p = c.data();
  for (int64_t r = 1; r < reps; ++r) {
    if (std::memcmp(p, p + r * block, sizeof(float) * static_cast<size_t>(block)) != 0) {
      return false;
    }
  }
  return true;
}

// Operand i of `tag` is indexed by the step's row (dim 0) — i.e. a constant
// there with one row per stacked-batch row must be block-uniform for the
// step to run at uniform rows, and gets sliced to its first block when it
// does. Channel parameters (γ, β, ...) broadcast across rows and are exempt.
bool row_indexed_operand(OpTag tag, int i) {
  if (i == 0) return true;
  switch (tag) {
    case OpTag::kAdd:
    case OpTag::kSub:
    case OpTag::kMul:
    case OpTag::kApplyMask:
    case OpTag::kConcat:
      return i == 1;
    case OpTag::kLstmGates:
      return i <= 2;
    default:
      return false;
  }
}

bool structured_tag(OpTag tag) {
  return tag == OpTag::kLinear || tag == OpTag::kConv2d ||
         tag == OpTag::kConv1d;
}

// ---------------------------------------------------------------------------
// Builder IR.

struct WBuf {
  Shape shape;  // traced (stacked) shape
  bool replicated = true;
};

struct WStep {
  OpTag tag = OpTag::kNone;
  std::vector<int> args;
  int out = -1;
  int out2 = -1;
  StepFn fn;
  Tensor w, b, g2, b2;
  int64_t i0 = 0, i1 = 0;
  Tensor ep_gamma, ep_beta;
  std::shared_ptr<const PackedGemmB> packed_w;
  Tensor traced_out;
  bool replicated = true;
  bool dead = false;
};

struct PlanBuilder {
  int64_t t = 1;
  std::vector<WBuf> bufs;
  std::vector<Tensor> consts;
  std::unordered_map<const float*, std::vector<int>> buf_ids;
  std::unordered_map<const float*, std::vector<int>> const_ids;
  std::vector<WStep> ws;
  PlanStats stats;
  std::string err;

  // Emission outputs.
  std::vector<PlanStep> psteps;
  std::vector<Shape> fshape;        // per buffer, post lazy-stem reduction
  std::vector<int> slot_of;         // per buffer, -1 = never materialized
  std::vector<int64_t> slot_numel;  // per arena slot
  int out_buf = -1;
  std::vector<std::array<int64_t, 3>> conv_shapes;  // (n, ck, oa) per conv
  int64_t lstm_cells = 0;  // max rows·hidden over the kLstmGates steps

  bool fail(std::string m) {
    if (err.empty()) err = std::move(m);
    return false;
  }

  // -1: unknown pointer; -2: pointer known under a different shape (alias
  // hazard — compilation refuses rather than guessing).
  int find_buffer(const Tensor& x) const {
    auto it = buf_ids.find(x.data());
    if (it == buf_ids.end()) return -1;
    for (auto rit = it->second.rbegin(); rit != it->second.rend(); ++rit) {
      if (bufs[*rit].shape == x.shape()) return *rit;
    }
    return -2;
  }

  int intern_constant(const Tensor& x) {
    auto& ids = const_ids[x.data()];
    for (auto rit = ids.rbegin(); rit != ids.rend(); ++rit) {
      if (consts[*rit].same_shape(x)) return *rit;
    }
    consts.push_back(x);  // retain handle; keeps storage + pointer identity
    ids.push_back(static_cast<int>(consts.size()) - 1);
    return static_cast<int>(consts.size()) - 1;
  }

  bool build_steps(std::vector<TraceStep>& steps, const Tensor& input) {
    if (steps.empty()) return fail("empty trace");
    if (!input.defined() || input.numel() == 0) {
      return fail("trace input not set");
    }
    if (t > 1 && (input.rank() == 0 || input.dim(0) % t != 0)) {
      return fail("traced input rows not divisible by replica count");
    }
    bufs.push_back({input.shape(), t == 1});
    buf_ids[input.data()].push_back(0);
    for (TraceStep& tsx : steps) {
      if (!tsx.output.defined() || tsx.output.numel() == 0) {
        return fail("traced step has no output");
      }
      WStep w;
      w.tag = tsx.tag;
      w.fn = std::move(tsx.fn);
      w.w = tsx.w;
      w.b = tsx.b;
      w.i0 = tsx.i0;
      w.i1 = tsx.i1;
      w.packed_w = std::move(tsx.packed_w);
      w.traced_out = tsx.output;
      if (w.fn == nullptr && !structured_tag(w.tag)) {
        return fail("traced step without executor closure");
      }
      bool all_const = true;
      for (const Tensor& in : tsx.inputs) {
        if (!in.defined() || in.numel() == 0) {
          return fail("traced step has an undefined input");
        }
        const int bid = find_buffer(in);
        if (bid == -2) return fail("operand aliases a buffer under another shape");
        if (bid >= 0) {
          w.args.push_back(bid);
          all_const = false;
        } else {
          w.args.push_back(-1 - intern_constant(in));
        }
      }
      if (w.args.size() > 3) return fail("traced step with more than 3 operands");
      if (all_const) {
        // The traced forward already computed this value from constants
        // alone; bake its output verbatim (exact by construction).
        consts.push_back(tsx.output);
        const_ids[tsx.output.data()].push_back(static_cast<int>(consts.size()) - 1);
        ++stats.folded_constants;
        continue;
      }
      w.out = static_cast<int>(bufs.size());
      bufs.push_back({tsx.output.shape(), true});
      buf_ids[tsx.output.data()].push_back(w.out);
      ws.push_back(std::move(w));
    }
    if (ws.empty()) return fail("trace folded away entirely");
    return true;
  }

  // Buffers start uniform (one block of T identical ones); a step's output
  // becomes replicated when the op itself is per-replica (replica affines),
  // when its shape cannot split into T row blocks, when any input buffer is
  // already replicated, or when a row-indexed constant operand (mask, noise
  // factor) differs across replicas. Monotone in trace order.
  void mark_replication() {
    if (t <= 1) return;
    for (WStep& w : ws) {
      bool rep = w.tag == OpTag::kMulChannelRep ||
                 w.tag == OpTag::kAddChannelRep || w.tag == OpTag::kReshape;
      const Tensor& to = w.traced_out;
      if (to.rank() == 0 || to.dim(0) <= 0 || to.dim(0) % t != 0) rep = true;
      if (!rep) {
        for (size_t i = 0; i < w.args.size() && !rep; ++i) {
          const int a = w.args[i];
          if (a >= 0) {
            rep = bufs[a].replicated;
          } else if (row_indexed_operand(w.tag, static_cast<int>(i))) {
            const Tensor& c = consts[-1 - a];
            if (c.rank() >= 1 && c.dim(0) == to.dim(0) &&
                !block_uniform(c, t)) {
              rep = true;
            }
          }
        }
      }
      w.replicated = rep;
      bufs[w.out].replicated = rep;
    }
  }

  std::vector<std::vector<int>> consumers() const {
    std::vector<std::vector<int>> cons(bufs.size());
    for (int s = 0; s < static_cast<int>(ws.size()); ++s) {
      if (ws[s].dead) continue;
      for (const int a : ws[s].args) {
        if (a >= 0) cons[a].push_back(s);
      }
    }
    return cons;
  }

  int final_buffer() const {
    for (auto rit = ws.rbegin(); rit != ws.rend(); ++rit) {
      if (!rit->dead) return rit->out;
    }
    return -1;
  }

  void fuse_lstm();
  void fuse_bn_affine();
  void fuse_affine_pairs();
  void fold_epilogues();
  bool emit();
};

// Matches the 13-step LSTM cell tail anchored at the gates add (gs = g1+g2):
// 4 sole-consumed col slices -> σ,σ,tanh,σ -> f·c_prev, i·g -> add (c') ->
// tanh -> o·tanh(c') and replaces it with one kLstmGates step producing h'
// (out) and c' (out2). c' stays materialized because the next timestep reads
// it. The two gate GEMMs stay separate steps (fusing them would change
// accumulation order).
void PlanBuilder::fuse_lstm() {
  bool changed = true;
  while (changed) {
    changed = false;
    const auto cons = consumers();
    const int fin = final_buffer();
    for (int ai = 0; ai < static_cast<int>(ws.size()) && !changed; ++ai) {
      WStep& a_step = ws[ai];
      if (a_step.dead || a_step.tag != OpTag::kAdd || a_step.args.size() != 2) {
        continue;
      }
      const int gates = a_step.out;
      if (gates == fin || cons[gates].size() != 4) continue;
      const Shape& gs = bufs[gates].shape;
      if (gs.size() != 2 || gs[1] <= 0 || gs[1] % 4 != 0) continue;
      const int64_t h = gs[1] / 4;
      int slice[4] = {-1, -1, -1, -1};
      bool ok = true;
      for (const int s : cons[gates]) {
        const WStep& sl = ws[s];
        if (sl.tag != OpTag::kSliceCols || sl.args.size() != 1 ||
            sl.i0 % h != 0 || sl.i0 / h > 3 || sl.i1 != sl.i0 + h ||
            slice[sl.i0 / h] != -1) {
          ok = false;
          break;
        }
        slice[sl.i0 / h] = s;
      }
      if (!ok) continue;
      auto sole = [&](int buf) {
        return (buf != fin && cons[buf].size() == 1) ? cons[buf][0] : -1;
      };
      static constexpr OpTag kWant[4] = {OpTag::kSigmoid, OpTag::kSigmoid,
                                         OpTag::kTanh, OpTag::kSigmoid};
      int act[4];
      for (int k = 0; k < 4 && ok; ++k) {
        act[k] = sole(ws[slice[k]].out);
        ok = act[k] >= 0 && ws[act[k]].tag == kWant[k];
      }
      if (!ok) continue;
      const int ib = ws[act[0]].out, fb = ws[act[1]].out;
      const int gb = ws[act[2]].out, ob = ws[act[3]].out;
      const int fmul = sole(fb);
      if (fmul < 0 || ws[fmul].tag != OpTag::kMul ||
          ws[fmul].args.size() != 2) {
        continue;
      }
      const int cprev = ws[fmul].args[0] == fb ? ws[fmul].args[1] : ws[fmul].args[0];
      const int imul = sole(ib);
      if (imul < 0 || ws[imul].tag != OpTag::kMul ||
          ws[imul].args.size() != 2) {
        continue;
      }
      const int iother =
          ws[imul].args[0] == ib ? ws[imul].args[1] : ws[imul].args[0];
      if (iother != gb || sole(gb) != imul) continue;
      const int cadd = sole(ws[fmul].out);
      if (cadd < 0 || cadd != sole(ws[imul].out) ||
          ws[cadd].tag != OpTag::kAdd) {
        continue;
      }
      const int cnext = ws[cadd].out;
      int th = -1;
      ok = true;
      for (const int s : cons[cnext]) {
        if (ws[s].tag == OpTag::kTanh) {
          if (th != -1) {
            ok = false;
            break;
          }
          th = s;
        }
      }
      if (!ok || th < 0 || ws[th].args.size() != 1 || ws[th].args[0] != cnext) {
        continue;
      }
      const int hm = sole(ws[th].out);
      if (hm < 0 || ws[hm].tag != OpTag::kMul || ws[hm].args.size() != 2) {
        continue;
      }
      const int hother =
          ws[hm].args[0] == ws[th].out ? ws[hm].args[1] : ws[hm].args[0];
      if (hother != ob || sole(ob) != hm) continue;
      int matched[] = {ai,     slice[0], slice[1], slice[2], slice[3],
                       act[0], act[1],   act[2],   act[3],   fmul,
                       imul,   cadd,     th,       hm};
      bool distinct = true;
      for (size_t x = 0; x < std::size(matched) && distinct; ++x) {
        for (size_t y = x + 1; y < std::size(matched); ++y) {
          if (matched[x] == matched[y]) {
            distinct = false;
            break;
          }
        }
      }
      if (!distinct) continue;
      WStep fs;
      fs.tag = OpTag::kLstmGates;
      fs.args = {a_step.args[0], a_step.args[1], cprev};
      fs.out = ws[hm].out;
      fs.out2 = cnext;
      fs.i0 = h;
      fs.traced_out = ws[hm].traced_out;
      fs.replicated = ws[hm].replicated;
      for (const int s : matched) ws[s].dead = true;
      ws[hm] = std::move(fs);
      ws[hm].dead = false;
      stats.fused_away += 12;  // 13 steps in, 1 out
      changed = true;
    }
  }
}

// batch_normalize(eval) -> mul_channel(γ const) -> add_channel(β const),
// each link sole-consumed, collapses to one kBnAffine step.
void PlanBuilder::fuse_bn_affine() {
  bool changed = true;
  while (changed) {
    changed = false;
    const auto cons = consumers();
    const int fin = final_buffer();
    for (int bi = 0; bi < static_cast<int>(ws.size()); ++bi) {
      if (ws[bi].dead || ws[bi].tag != OpTag::kBatchNormEval ||
          ws[bi].args.size() != 1) {
        continue;
      }
      if (ws[bi].out == fin || cons[ws[bi].out].size() != 1) continue;
      const int mi = cons[ws[bi].out][0];
      if (ws[mi].tag != OpTag::kMulChannel || ws[mi].args.size() != 2 ||
          ws[mi].args[0] != ws[bi].out || ws[mi].args[1] >= 0) {
        continue;
      }
      if (ws[mi].out == fin || cons[ws[mi].out].size() != 1) continue;
      const int di = cons[ws[mi].out][0];
      if (ws[di].tag != OpTag::kAddChannel || ws[di].args.size() != 2 ||
          ws[di].args[0] != ws[mi].out || ws[di].args[1] >= 0) {
        continue;
      }
      WStep fs;
      fs.tag = OpTag::kBnAffine;
      fs.args = {ws[bi].args[0]};
      fs.w = ws[bi].w;   // running mean
      fs.b = ws[bi].b;   // precomputed 1/sqrt(var + eps)
      fs.g2 = consts[-1 - ws[mi].args[1]];
      fs.b2 = consts[-1 - ws[di].args[1]];
      fs.out = ws[di].out;
      fs.traced_out = ws[di].traced_out;
      fs.replicated = ws[di].replicated;
      ws[bi].dead = true;
      ws[mi].dead = true;
      ws[di] = std::move(fs);
      stats.fused_away += 2;
      changed = true;
      break;
    }
  }
}

// mul_channel[_replicated](γ const) -> add_channel[_replicated](β const),
// sole-consumed, collapses to one kAffine step with γ/β as [R, C] (R = 1
// for the plain pair). The replicated pair is the InvertedNorm stochastic
// affine; when its input buffer is uniform the kAffine doubles as the lazy
// replication point (expanding executor).
void PlanBuilder::fuse_affine_pairs() {
  bool changed = true;
  while (changed) {
    changed = false;
    const auto cons = consumers();
    const int fin = final_buffer();
    for (int mi = 0; mi < static_cast<int>(ws.size()); ++mi) {
      if (ws[mi].dead) continue;
      const bool repv = ws[mi].tag == OpTag::kMulChannelRep;
      if (!repv && ws[mi].tag != OpTag::kMulChannel) continue;
      if (ws[mi].args.size() != 2 || ws[mi].args[1] >= 0) continue;
      if (ws[mi].out == fin || cons[ws[mi].out].size() != 1) continue;
      const int di = cons[ws[mi].out][0];
      const OpTag want_add =
          repv ? OpTag::kAddChannelRep : OpTag::kAddChannel;
      if (ws[di].tag != want_add || ws[di].args.size() != 2 ||
          ws[di].args[0] != ws[mi].out || ws[di].args[1] >= 0) {
        continue;
      }
      Tensor g = consts[-1 - ws[mi].args[1]];
      Tensor b = consts[-1 - ws[di].args[1]];
      if (!repv) {
        g = g.reshaped({1, g.numel()});
        b = b.reshaped({1, b.numel()});
      }
      if (g.rank() != 2 || !g.same_shape(b)) continue;
      WStep fs;
      fs.tag = OpTag::kAffine;
      fs.args = {ws[mi].args[0]};
      fs.w = g;
      fs.b = b;
      fs.out = ws[di].out;
      fs.traced_out = ws[di].traced_out;
      fs.replicated = ws[di].replicated;
      ws[mi].dead = true;
      ws[di] = std::move(fs);
      stats.fused_away += 1;
      changed = true;
      break;
    }
  }
}

// A non-expanding kAffine sole-consuming a linear/conv output folds into the
// producer as an in-place epilogue over its output buffer. Expanding affines
// (uniform in, replicated out) must stay standalone — the producer runs at
// uniform rows.
void PlanBuilder::fold_epilogues() {
  bool changed = true;
  while (changed) {
    changed = false;
    const auto cons = consumers();
    const int fin = final_buffer();
    for (int pi = 0; pi < static_cast<int>(ws.size()); ++pi) {
      if (ws[pi].dead || !structured_tag(ws[pi].tag) ||
          ws[pi].ep_gamma.defined()) {
        continue;
      }
      if (ws[pi].out == fin || cons[ws[pi].out].size() != 1) continue;
      const int fi = cons[ws[pi].out][0];
      if (ws[fi].tag != OpTag::kAffine || ws[fi].args.size() != 1 ||
          ws[fi].args[0] != ws[pi].out) {
        continue;
      }
      if (bufs[ws[fi].out].replicated != bufs[ws[pi].out].replicated) continue;
      ws[pi].ep_gamma = ws[fi].w;
      ws[pi].ep_beta = ws[fi].b;
      ws[pi].out = ws[fi].out;
      ws[pi].traced_out = ws[fi].traced_out;
      ws[fi].dead = true;
      ++stats.epilogue_affines;
      ++stats.fused_away;
      changed = true;
      break;
    }
  }
}

bool PlanBuilder::emit() {
  std::unordered_map<int, int> repmap;    // buffer -> its replicated copy
  std::unordered_map<int, int> slicemap;  // constant -> first-block slice
  auto emit_replicate = [&](int src) {
    const auto it = repmap.find(src);
    if (it != repmap.end()) return it->second;
    const int nb = static_cast<int>(bufs.size());
    bufs.push_back({bufs[src].shape, true});
    PlanStep r;
    r.tag = OpTag::kReplicate;
    r.args = {src};
    r.out = nb;
    psteps.push_back(std::move(r));
    ++stats.replicate_steps;
    repmap.emplace(src, nb);
    return nb;
  };
  auto slice_const = [&](int cid) {
    const auto it = slicemap.find(cid);
    if (it != slicemap.end()) return it->second;
    const Tensor c = consts[cid];
    Shape s = c.shape();
    s[0] /= t;
    Tensor sc = Tensor::empty(std::move(s));
    std::memcpy(sc.data(), c.data(), sizeof(float) * static_cast<size_t>(sc.numel()));
    consts.push_back(std::move(sc));
    const int id = static_cast<int>(consts.size()) - 1;
    slicemap.emplace(cid, id);
    return id;
  };

  for (WStep& w : ws) {
    if (w.dead) continue;
    PlanStep p;
    p.tag = w.tag;
    p.args = w.args;
    p.out = w.out;
    p.out2 = w.out2;
    p.fn = std::move(w.fn);
    p.w = w.w;
    p.b = w.b;
    p.g2 = w.g2;
    p.b2 = w.b2;
    p.i0 = w.i0;
    p.i1 = w.i1;
    p.ep_gamma = w.ep_gamma;
    p.ep_beta = w.ep_beta;
    p.packed_w = w.packed_w;
    if (p.packed_w != nullptr) ++stats.held_panels;
    if (t > 1) {
      for (size_t i = 0; i < p.args.size(); ++i) {
        const int a = p.args[i];
        if (a >= 0) {
          if (w.replicated && !bufs[a].replicated) {
            // kAffine reads its data operand at uniform rows directly
            // (expanding executor); everything else gets an explicit copy.
            if (!(w.tag == OpTag::kAffine && i == 0)) {
              p.args[i] = emit_replicate(a);
            }
          } else if (!w.replicated && bufs[a].replicated) {
            return fail("internal: uniform step reads a replicated buffer");
          }
        } else if (!w.replicated &&
                   row_indexed_operand(w.tag, static_cast<int>(i))) {
          const int cid = -1 - a;
          const Tensor& c = consts[cid];
          const Tensor& to = w.traced_out;
          if (c.rank() >= 1 && to.rank() >= 1 && c.dim(0) == to.dim(0) &&
              c.dim(0) % t == 0 && c.numel() % t == 0) {
            p.args[i] = -1 - slice_const(cid);
          }
        }
      }
      if (!w.replicated) ++stats.uniform_steps;
    }
    psteps.push_back(std::move(p));
  }
  if (psteps.empty()) return fail("no executable steps");
  out_buf = psteps.back().out;
  if (t > 1 && !bufs[out_buf].replicated) out_buf = emit_replicate(out_buf);

  // Final (post lazy-stem) buffer shapes.
  fshape.resize(bufs.size());
  for (size_t i = 0; i < bufs.size(); ++i) {
    Shape s = bufs[i].shape;
    if (t > 1 && !bufs[i].replicated) {
      if (s.empty() || s[0] % t != 0) {
        return fail("internal: uniform buffer rows not divisible by replicas");
      }
      s[0] /= t;
    }
    fshape[i] = std::move(s);
  }

  // Liveness-driven arena slot assignment: a buffer's slot returns to a
  // per-numel free list after its last consuming step; outputs allocate
  // before operands release, so a step never writes the buffer it reads
  // (except the intentional in-place epilogue).
  const int nb = static_cast<int>(bufs.size());
  std::vector<int> last_use(nb, -1);
  for (int s = 0; s < static_cast<int>(psteps.size()); ++s) {
    for (const int a : psteps[s].args) {
      if (a >= 0) last_use[a] = s;
    }
  }
  if (last_use[0] < 0) return fail("traced input is never consumed");
  last_use[out_buf] = std::numeric_limits<int>::max();
  slot_of.assign(nb, -1);
  std::vector<char> freed(nb, 0);
  std::unordered_map<int64_t, std::vector<int>> free_slots;
  auto alloc = [&](int buf) {
    if (buf < 0 || slot_of[buf] >= 0) return;
    const int64_t ne = shape_numel(fshape[buf]);
    auto& fl = free_slots[ne];
    if (!fl.empty()) {
      slot_of[buf] = fl.back();
      fl.pop_back();
    } else {
      slot_of[buf] = static_cast<int>(slot_numel.size());
      slot_numel.push_back(ne);
    }
  };
  auto release = [&](int buf, int s) {
    if (buf < 0 || freed[buf] || slot_of[buf] < 0) return;
    if (last_use[buf] <= s) {
      freed[buf] = 1;
      free_slots[shape_numel(fshape[buf])].push_back(slot_of[buf]);
    }
  };
  alloc(0);
  for (int s = 0; s < static_cast<int>(psteps.size()); ++s) {
    alloc(psteps[s].out);
    alloc(psteps[s].out2);
    for (const int a : psteps[s].args) {
      if (a >= 0) release(a, s);
    }
    release(psteps[s].out, s);
    release(psteps[s].out2, s);
  }

  // Conv workspace and LSTM gate-plane geometry over the final shapes.
  for (const PlanStep& p : psteps) {
    if (p.tag == OpTag::kLstmGates) {
      lstm_cells = std::max(lstm_cells, shape_numel(fshape[p.out]));
      continue;
    }
    if (p.tag != OpTag::kConv2d && p.tag != OpTag::kConv1d) continue;
    if (p.args.empty() || p.args[0] < 0) {
      return fail("internal: conv step without buffer input");
    }
    const Shape& xs = fshape[p.args[0]];
    const Shape& os = fshape[p.out];
    const int64_t n = xs[0];
    const int64_t cout = p.w.dim(0);
    const int64_t ck = p.w.numel() / cout;
    const int64_t oa = shape_numel(os) / (os[0] * cout);
    conv_shapes.push_back({n, ck, oa});
  }
  return true;
}

std::atomic<bool> g_plan_profiling{false};

}  // namespace

const char* op_tag_name(OpTag tag) {
  switch (tag) {
    case OpTag::kNone: return "none";
    case OpTag::kAdd: return "add";
    case OpTag::kSub: return "sub";
    case OpTag::kMul: return "mul";
    case OpTag::kMulScalar: return "mul_scalar";
    case OpTag::kAddScalar: return "add_scalar";
    case OpTag::kRelu: return "relu";
    case OpTag::kSigmoid: return "sigmoid";
    case OpTag::kTanh: return "tanh";
    case OpTag::kSign: return "sign";
    case OpTag::kPact: return "pact";
    case OpTag::kFakeQuant: return "fake_quant";
    case OpTag::kReshape: return "reshape";
    case OpTag::kConcat: return "concat";
    case OpTag::kSliceCols: return "slice_cols";
    case OpTag::kSelectTime: return "select_time";
    case OpTag::kMulChannel: return "mul_channel";
    case OpTag::kAddChannel: return "add_channel";
    case OpTag::kMulChannelRep: return "mul_channel_rep";
    case OpTag::kAddChannelRep: return "add_channel_rep";
    case OpTag::kApplyMask: return "apply_mask";
    case OpTag::kGroupNorm: return "group_norm";
    case OpTag::kBatchNormEval: return "batch_norm_eval";
    case OpTag::kMaxPool2d: return "max_pool2d";
    case OpTag::kMaxPool1d: return "max_pool1d";
    case OpTag::kAvgPool2d: return "avg_pool2d";
    case OpTag::kGap2d: return "gap2d";
    case OpTag::kGap1d: return "gap1d";
    case OpTag::kUpsample2x: return "upsample2x";
    case OpTag::kLinear: return "linear";
    case OpTag::kConv2d: return "conv2d";
    case OpTag::kConv1d: return "conv1d";
    case OpTag::kReplicate: return "replicate";
    case OpTag::kAffine: return "affine";
    case OpTag::kBnAffine: return "bn_affine";
    case OpTag::kLstmGates: return "lstm_gates";
  }
  return "unknown";
}

const char* op_tag_group(OpTag tag) {
  switch (tag) {
    case OpTag::kLinear:
    case OpTag::kConv2d:
    case OpTag::kConv1d:
      return "gemm";
    case OpTag::kAffine:
    case OpTag::kBnAffine:
    case OpTag::kLstmGates:
      return "epilogue";
    default:
      return "other";
  }
}

void set_plan_profiling(bool on) {
  g_plan_profiling.store(on, std::memory_order_relaxed);
}

bool plan_profiling_enabled() {
  return g_plan_profiling.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------

const Tensor& PlanContext::output() const {
  RIPPLE_CHECK(plan_ != nullptr) << "PlanContext not built by a plan";
  return values_[plan_->output_buffer_];
}

std::unique_ptr<PlanContext> ExecutionPlan::make_context() const {
  auto ctx = std::make_unique<PlanContext>();
  ctx->plan_ = this;
  ctx->slots_.reserve(slot_numel_.size());
  for (const int64_t ne : slot_numel_) {
    ctx->slots_.push_back(Tensor::empty({ne}));
  }
  ctx->values_.resize(buffers_.size());
  for (size_t i = 0; i < buffers_.size(); ++i) {
    if (buffers_[i].slot >= 0) {
      ctx->values_[i] = ctx->slots_[buffers_[i].slot].reshaped(buffers_[i].shape);
    }
  }
  for (const auto& [n, ck, oa] : conv_shapes_)
    ctx->conv_ws_.ensure(n, ck, oa);
  ctx->lstm_ws_.resize(static_cast<size_t>(5 * lstm_cells_));
  return ctx;
}

const Tensor& ExecutionPlan::execute(const Tensor& x, PlanContext& ctx) const {
  RIPPLE_CHECK(ctx.plan_ == this) << "PlanContext belongs to another plan";
  Tensor& xin = ctx.values_[input_buffer_];
  RIPPLE_CHECK(x.numel() == xin.numel())
      << "plan input " << shape_to_string(x.shape()) << " vs compiled "
      << shape_to_string(input_shape_);
  std::memcpy(xin.data(), x.data(),
              sizeof(float) * static_cast<size_t>(x.numel()));
  const Tensor* ins[4] = {nullptr, nullptr, nullptr, nullptr};
  const bool prof = profile_ != nullptr && plan_profiling_enabled();
  for (size_t si = 0; si < steps_.size(); ++si) {
    const PlanStep& st = steps_[si];
    std::chrono::steady_clock::time_point step_start;
    if (prof) step_start = std::chrono::steady_clock::now();
    const int n = static_cast<int>(st.args.size());
    for (int i = 0; i < n; ++i) {
      const int a = st.args[i];
      ins[i] = a >= 0 ? &ctx.values_[a] : &constants_[-1 - a];
    }
    Tensor& out = ctx.values_[st.out];
    switch (st.tag) {
      case OpTag::kLinear: {
        const float* bias = st.b.defined() ? st.b.data() : nullptr;
        if (st.ep_gamma.defined()) {
          // Offer the backend the whole fused step (GEMM + per-replica
          // affine) — the int8 substrate folds γ/β into its requantize
          // epilogue. A claim must be bit-exact vs the unfused sequence;
          // the session's plan-verification gate enforces that before any
          // plan serves traffic.
          if (ExecutionBackend* be = active_exec_backend(); be != nullptr) {
            ExecutionBackend::LinearEpilogue lep;
            lep.bias = bias;
            lep.gamma = &st.ep_gamma;
            lep.beta = &st.ep_beta;
            if (be->linear_ex(*ins[0], st.w, lep, out)) break;
          }
          autograd::linear_forward_into(*ins[0], st.w, bias, out,
                                        st.packed_w.get());
          affine_into(out, st.ep_gamma, st.ep_beta, out);
          break;
        }
        autograd::linear_forward_into(*ins[0], st.w, bias, out,
                                      st.packed_w.get());
        break;
      }
      case OpTag::kConv2d:
        autograd::conv2d_forward_into(*ins[0], st.w,
                                      st.b.defined() ? st.b.data() : nullptr,
                                      st.i0, st.i1, ctx.conv_ws_, out);
        if (st.ep_gamma.defined()) {
          affine_into(out, st.ep_gamma, st.ep_beta, out);
        }
        break;
      case OpTag::kConv1d:
        autograd::conv1d_forward_into(*ins[0], st.w,
                                      st.b.defined() ? st.b.data() : nullptr,
                                      st.i0, st.i1, ctx.conv_ws_, out);
        if (st.ep_gamma.defined()) {
          affine_into(out, st.ep_gamma, st.ep_beta, out);
        }
        break;
      case OpTag::kAffine:
        affine_into(*ins[0], st.w, st.b, out);
        break;
      case OpTag::kBnAffine:
        bn_affine_into(*ins[0], st.w, st.b, st.g2, st.b2, out);
        break;
      case OpTag::kLstmGates:
        lstm_gates_into(*ins[0], *ins[1], *ins[2], st.i0, ctx.lstm_ws_.data(),
                        out, ctx.values_[st.out2]);
        break;
      case OpTag::kReplicate:
        replicate_into(*ins[0], out);
        break;
      default:
        st.fn(ins, n, out);
        break;
    }
    if (prof) {
      const auto step_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               std::chrono::steady_clock::now() - step_start)
                               .count();
      profile_[si].ns.fetch_add(static_cast<uint64_t>(step_ns),
                                std::memory_order_relaxed);
      profile_[si].calls.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return ctx.values_[output_buffer_];
}

std::vector<PlanOpProfile> ExecutionPlan::op_profile() const {
  std::vector<PlanOpProfile> out(steps_.size());
  for (size_t i = 0; i < steps_.size(); ++i) {
    out[i].step = static_cast<int>(i);
    out[i].tag = steps_[i].tag;
    out[i].name = op_tag_name(steps_[i].tag);
    if (profile_ != nullptr) {
      out[i].calls = profile_[i].calls.load(std::memory_order_relaxed);
      out[i].total_ns = profile_[i].ns.load(std::memory_order_relaxed);
    }
  }
  return out;
}

void ExecutionPlan::reset_profile() const {
  if (profile_ == nullptr) return;
  for (size_t i = 0; i < steps_.size(); ++i) {
    profile_[i].ns.store(0, std::memory_order_relaxed);
    profile_[i].calls.store(0, std::memory_order_relaxed);
  }
}

std::unique_ptr<ExecutionPlan> compile_trace(std::vector<TraceStep> steps,
                                             const Tensor& stacked_input,
                                             int64_t replicas,
                                             std::string* error) {
  PlanBuilder b;
  b.t = replicas < 1 ? 1 : replicas;
  b.stats.traced_ops = static_cast<int>(steps.size());
  bool ok = b.build_steps(steps, stacked_input);
  if (ok) {
    b.mark_replication();
    b.fuse_lstm();
    b.fuse_bn_affine();
    b.fuse_affine_pairs();
    b.fold_epilogues();
    ok = b.emit();
  }
  if (!ok) {
    if (error != nullptr) {
      *error = b.err.empty() ? "plan compilation failed" : b.err;
    }
    return nullptr;
  }
  auto plan = std::unique_ptr<ExecutionPlan>(new ExecutionPlan());
  plan->constants_ = std::move(b.consts);
  plan->buffers_.resize(b.bufs.size());
  for (size_t i = 0; i < b.bufs.size(); ++i) {
    plan->buffers_[i].shape = std::move(b.fshape[i]);
    plan->buffers_[i].slot = b.slot_of[i];
  }
  plan->slot_numel_ = std::move(b.slot_numel);
  plan->steps_ = std::move(b.psteps);
  plan->profile_.reset(new ExecutionPlan::StepProfile[plan->steps_.size()]());
  plan->input_buffer_ = 0;
  plan->output_buffer_ = b.out_buf;
  plan->replicas_ = b.t;
  plan->conv_shapes_ = std::move(b.conv_shapes);
  plan->lstm_cells_ = b.lstm_cells;
  plan->input_shape_ = plan->buffers_[0].shape;
  plan->output_shape_ = plan->buffers_[b.out_buf].shape;
  b.stats.steps = static_cast<int>(plan->steps_.size());
  b.stats.constants = static_cast<int>(plan->constants_.size());
  b.stats.buffers = static_cast<int>(plan->buffers_.size());
  b.stats.arena_slots = static_cast<int>(plan->slot_numel_.size());
  int64_t bytes = 0;
  for (const int64_t ne : plan->slot_numel_) bytes += ne;
  b.stats.arena_bytes = bytes * static_cast<int64_t>(sizeof(float));
  plan->stats_ = b.stats;
  return plan;
}

}  // namespace ripple::deploy
