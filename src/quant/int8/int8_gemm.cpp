#include "quant/int8/int8_gemm.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "tensor/env.h"
#include "tensor/threadpool.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define RIPPLE_X86 1
#endif

namespace ripple::quant::int8 {
namespace {

int64_t ceil_div(int64_t a, int64_t b) { return (a + b - 1) / b; }

inline int32_t load_group(const uint8_t* p) {
  int32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// A tile kernel computes the exact int32 accumulators of a kMR×kNR block:
// acc[r*kNR + j] = Σ_k rows[r][k]·panel[k][j]. The driver hands it an
// interleaved A block — [g][r][kKG] bytes, rows already aliased into
// remainder slots — so every broadcast group the kernel consumes is one
// contiguous 4-byte load instead of eight scattered row-pointer reads
// (the difference between ~10% and ~50% of the VNNI port bound on skinny
// serving shapes). Sign interpretation of each operand is baked into the
// kernel variant.
using TileFn = void (*)(const uint8_t* ablock, int64_t kgroups,
                        const uint8_t* panel, int32_t* acc);

// ---- portable tile kernels (always compiled; the RIPPLE_SIMD=0 oracle) -----

template <bool kRowsU8>
void tile_scalar(const uint8_t* ablock, int64_t kgroups, const uint8_t* panel,
                 int32_t* acc) {
  for (int64_t e = 0; e < kMR * kNR; ++e) acc[e] = 0;
  for (int64_t g = 0; g < kgroups; ++g) {
    const uint8_t* pg = panel + g * kKG * kNR;
    for (int64_t r = 0; r < kMR; ++r) {  // kMR == the scalar kernel's mr
      const uint8_t* a = ablock + (g * kMR + r) * kKG;
      int32_t* arow = acc + r * kNR;
      for (int64_t j = 0; j < kNR; ++j) {
        const uint8_t* w = pg + j * kKG;
        int32_t dot = 0;
        for (int64_t kk = 0; kk < kKG; ++kk) {
          const int32_t av =
              kRowsU8 ? int32_t(a[kk]) : int32_t(int8_t(a[kk]));
          const int32_t wv =
              kRowsU8 ? int32_t(int8_t(w[kk])) : int32_t(w[kk]);
          dot += av * wv;
        }
        arow[j] += dot;
      }
    }
  }
}

// ---- SIMD tile kernels (per-function target; selected via CPUID) -----------
//
// vpmaddubsw/vpdpbusd multiply unsigned×signed bytes in a fixed operand
// order, so each ISA gets two variants that only swap the operands. The u8
// operand is always the 7-bit dynamic-quantized side, so the vpmaddubsw
// intermediate |u·s + u·s| ≤ 127·128·2 < 2^15 never saturates and the
// accumulators match tile_scalar bit-for-bit.

#ifdef RIPPLE_X86

__attribute__((target("avx2"))) inline void store_acc8(int32_t* dst,
                                                       __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), v);
}

// AVX2 runs 4-row tiles: 4 rows × (lo, hi) = 8 accumulator registers plus
// the two panel halves, the broadcast and the `ones` constant stay inside
// the 16-register ymm file with room for the loop carried addresses.
inline constexpr int64_t kMrAvx2 = 4;

#define RIPPLE_INT8_TILE_AVX2(NAME, MADD)                                     \
  __attribute__((target("avx2"))) void NAME(                                  \
      const uint8_t* ablock, int64_t kgroups, const uint8_t* panel,           \
      int32_t* acc) {                                                         \
    const __m256i ones = _mm256_set1_epi16(1);                                \
    __m256i lo[kMrAvx2], hi[kMrAvx2];                                         \
    for (int64_t r = 0; r < kMrAvx2; ++r) {                                   \
      lo[r] = _mm256_setzero_si256();                                         \
      hi[r] = _mm256_setzero_si256();                                         \
    }                                                                         \
    for (int64_t g = 0; g < kgroups; ++g) {                                   \
      const __m256i b0 = _mm256_loadu_si256(                                  \
          reinterpret_cast<const __m256i*>(panel + g * kKG * kNR));           \
      const __m256i b1 = _mm256_loadu_si256(                                  \
          reinterpret_cast<const __m256i*>(panel + g * kKG * kNR + 32));      \
      const uint8_t* a = ablock + g * kMrAvx2 * kKG;                          \
      for (int64_t r = 0; r < kMrAvx2; ++r) {                                 \
        const __m256i av = _mm256_set1_epi32(load_group(a + r * kKG));        \
        lo[r] = _mm256_add_epi32(                                             \
            lo[r], _mm256_madd_epi16(MADD(av, b0), ones));                    \
        hi[r] = _mm256_add_epi32(                                             \
            hi[r], _mm256_madd_epi16(MADD(av, b1), ones));                    \
      }                                                                       \
    }                                                                         \
    for (int64_t r = 0; r < kMrAvx2; ++r) {                                   \
      store_acc8(acc + r * kNR, lo[r]);                                       \
      store_acc8(acc + r * kNR + 8, hi[r]);                                   \
    }                                                                         \
  }

#define RIPPLE_MADD_ROWS_U8(av, b) _mm256_maddubs_epi16((av), (b))
#define RIPPLE_MADD_ROWS_S8(av, b) _mm256_maddubs_epi16((b), (av))
RIPPLE_INT8_TILE_AVX2(tile_avx2_u8rows, RIPPLE_MADD_ROWS_U8)
RIPPLE_INT8_TILE_AVX2(tile_avx2_s8rows, RIPPLE_MADD_ROWS_S8)
#undef RIPPLE_MADD_ROWS_U8
#undef RIPPLE_MADD_ROWS_S8
#undef RIPPLE_INT8_TILE_AVX2

// VNNI runs full kMR = 8-row tiles with the K-group loop unrolled by two:
// 16 independent vpdpbusd chains per iteration (the instruction's ~5-cycle
// latency needs that much ILP to keep the dot-product ports saturated),
// every broadcast a contiguous 4-byte load from the interleaved A block,
// and the whole working set — 8 sums + 2 panels + broadcast — well inside
// the 32-register zmm file. The 8-row body is spelled out because the
// rolled loop keeps GCC from register-allocating the sums array (~2×).
#define RIPPLE_INT8_DP8(DP, S, A, B)                                          \
  S[0] = DP(S[0], _mm512_set1_epi32(load_group((A))), (B));                   \
  S[1] = DP(S[1], _mm512_set1_epi32(load_group((A) + kKG)), (B));             \
  S[2] = DP(S[2], _mm512_set1_epi32(load_group((A) + 2 * kKG)), (B));         \
  S[3] = DP(S[3], _mm512_set1_epi32(load_group((A) + 3 * kKG)), (B));         \
  S[4] = DP(S[4], _mm512_set1_epi32(load_group((A) + 4 * kKG)), (B));         \
  S[5] = DP(S[5], _mm512_set1_epi32(load_group((A) + 5 * kKG)), (B));         \
  S[6] = DP(S[6], _mm512_set1_epi32(load_group((A) + 6 * kKG)), (B));         \
  S[7] = DP(S[7], _mm512_set1_epi32(load_group((A) + 7 * kKG)), (B));

#define RIPPLE_INT8_TILE_VNNI(NAME, DP)                                       \
  __attribute__((target("avx512f,avx512bw,avx512vnni"))) void NAME(           \
      const uint8_t* ablock, int64_t kgroups, const uint8_t* panel,           \
      int32_t* acc) {                                                         \
    __m512i sums[kMR];                                                        \
    for (int64_t r = 0; r < kMR; ++r) sums[r] = _mm512_setzero_si512();       \
    int64_t g = 0;                                                            \
    for (; g + 2 <= kgroups; g += 2) {                                        \
      const __m512i b0 = _mm512_loadu_si512(panel + g * kKG * kNR);           \
      const __m512i b1 = _mm512_loadu_si512(panel + (g + 1) * kKG * kNR);     \
      const uint8_t* a = ablock + g * kMR * kKG;                              \
      RIPPLE_INT8_DP8(DP, sums, a, b0)                                        \
      RIPPLE_INT8_DP8(DP, sums, a + kMR * kKG, b1)                            \
    }                                                                         \
    for (; g < kgroups; ++g) {                                                \
      const __m512i b = _mm512_loadu_si512(panel + g * kKG * kNR);            \
      const uint8_t* a = ablock + g * kMR * kKG;                              \
      RIPPLE_INT8_DP8(DP, sums, a, b)                                         \
    }                                                                         \
    for (int64_t r = 0; r < kMR; ++r)                                         \
      _mm512_storeu_si512(acc + r * kNR, sums[r]);                            \
  }

#define RIPPLE_DP_ROWS_U8(acc, av, b) _mm512_dpbusd_epi32((acc), (av), (b))
#define RIPPLE_DP_ROWS_S8(acc, av, b) _mm512_dpbusd_epi32((acc), (b), (av))
RIPPLE_INT8_TILE_VNNI(tile_vnni_u8rows, RIPPLE_DP_ROWS_U8)
RIPPLE_INT8_TILE_VNNI(tile_vnni_s8rows, RIPPLE_DP_ROWS_S8)
#undef RIPPLE_DP_ROWS_U8
#undef RIPPLE_DP_ROWS_S8
#undef RIPPLE_INT8_TILE_VNNI
#undef RIPPLE_INT8_DP8

#endif  // RIPPLE_X86

// ---- kernel selection ------------------------------------------------------

struct Int8Kernel {
  TileFn u8rows;
  TileFn s8rows;
  int64_t mr;  // rows per tile (≤ kMR); the driver blocks M by this
  /// True for the CPUID-selected kernels: the epilogue and the dynamic
  /// quantizers may take their AVX2 forms (bit-identical results; AVX2
  /// support is implied by either SIMD kernel being selected).
  bool simd;
  /// True when the VNNI kernel is active (implies AVX-512F): the epilogue
  /// may take its 16-lane form — one zmm covers a full tile row.
  bool simd512;
  const char* name;
};

const Int8Kernel kScalarKernel = {tile_scalar<true>, tile_scalar<false>, kMR,
                                  false, false, "scalar"};

Int8Kernel best_simd_kernel() {
#ifdef RIPPLE_X86
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vnni"))
    return {tile_vnni_u8rows, tile_vnni_s8rows, kMR, true, true,
            "avx512-vnni"};
  if (__builtin_cpu_supports("avx2"))
    return {tile_avx2_u8rows, tile_avx2_s8rows, kMrAvx2, true, false, "avx2"};
#endif
  return kScalarKernel;
}

Int8Kernel detect_kernel() {
  if (env_int("RIPPLE_SIMD", 1) == 0) return kScalarKernel;
  return best_simd_kernel();
}

// Not synchronized against in-flight calls; set_int8_backend is a
// test/bench hook, not a hot-path API (same contract as set_gemm_backend).
Int8Kernel g_kernel = detect_kernel();

// ---- requantize epilogue (shared scalar code on every kernel path) ---------

// Writes the valid sub-tile of C from the exact accumulators. γ/β is
// applied as two separate memory sweeps (mul, then add) so each element
// sees exactly one rounded multiply followed by one rounded add — the same
// rounding sequence as deploy/plan.cpp's affine_into and the graph's
// channel ops, and immune to fp-contract fusing the pair into an fma.
void requantize_tile(const int32_t* acc, int64_t i0, int64_t mvalid,
                     int64_t j0, int64_t nvalid, int64_t m, int64_t n,
                     const Int8Epilogue& ep, float* c, int64_t ldc) {
  const int64_t rows_per_rep =
      ep.replicas > 0 ? std::max<int64_t>(1, m / ep.replicas) : m;
  for (int64_t r = 0; r < mvalid; ++r) {
    const int64_t i = i0 + r;
    const int32_t* arow = acc + r * kNR;
    float* crow = c + i * ldc + j0;
    const int64_t row_zp = ep.row_zp ? ep.row_zp[i] : 0;
    const float row_s = ep.row_scale ? ep.row_scale[i] : 0.0f;
    for (int64_t jj = 0; jj < nvalid; ++jj) {
      const int64_t j = j0 + jj;
      const int64_t corr = ep.row_zp
                               ? row_zp * int64_t(ep.wsum[j])
                               : int64_t(ep.col_zp[j]) * ep.wsum[i];
      const float s =
          ep.weight_scale * (ep.row_scale ? row_s : ep.col_scale[j]);
      float v = float(int64_t(arow[jj]) - corr) * s;
      if (ep.col_bias != nullptr)
        v += ep.col_bias[j];
      else if (ep.row_bias != nullptr)
        v += ep.row_bias[i];
      if (ep.relu && !(v > 0.0f)) v = 0.0f;
      crow[jj] = v;
    }
    if (ep.gamma != nullptr) {
      const float* g = ep.gamma + (i / rows_per_rep) * n + j0;
      const float* b = ep.beta + (i / rows_per_rep) * n + j0;
      for (int64_t jj = 0; jj < nvalid; ++jj) crow[jj] *= g[jj];
      for (int64_t jj = 0; jj < nvalid; ++jj) crow[jj] += b[jj];
    }
  }
}

#ifdef RIPPLE_X86

// AVX2 requantize, bit-identical to requantize_tile: per lane it performs
// the same operation sequence — int32 subtract of the zero-point
// correction, cvtdq2ps (round-to-nearest-even, like the scalar
// int→float conversion of the identical value), one multiply, one add,
// then max(v, 0) whose NaN/−0 behaviour matches `!(v > 0)`. The int32
// correction arithmetic is exact because the driver only selects this
// path for k ≤ 2^17, where |acc − zp·wsum| ≤ 127·128·k < 2^31.
__attribute__((target("avx2"))) void requantize_tile_avx2(
    const int32_t* acc, int64_t i0, int64_t mvalid, int64_t j0,
    int64_t nvalid, int64_t m, int64_t n, const Int8Epilogue& ep, float* c,
    int64_t ldc) {
  const int64_t rows_per_rep =
      ep.replicas > 0 ? std::max<int64_t>(1, m / ep.replicas) : m;
  const __m256 zero = _mm256_setzero_ps();
  for (int64_t r = 0; r < mvalid; ++r) {
    const int64_t i = i0 + r;
    const int32_t* arow = acc + r * kNR;
    float* crow = c + i * ldc + j0;
    const int64_t row_zp = ep.row_zp ? ep.row_zp[i] : 0;
    const float row_s = ep.row_scale ? ep.row_scale[i] : 0.0f;
    int64_t jj = 0;
    for (; jj + 8 <= nvalid; jj += 8) {
      const __m256i a = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(arow + jj));
      __m256i corr;
      __m256 s;
      if (ep.row_zp != nullptr) {
        corr = _mm256_mullo_epi32(
            _mm256_set1_epi32(int32_t(row_zp)),
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(ep.wsum + j0 + jj)));
        s = _mm256_set1_ps(ep.weight_scale * row_s);
      } else {
        corr = _mm256_mullo_epi32(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(ep.col_zp + j0 + jj)),
            _mm256_set1_epi32(ep.wsum[i]));
        s = _mm256_mul_ps(_mm256_set1_ps(ep.weight_scale),
                          _mm256_loadu_ps(ep.col_scale + j0 + jj));
      }
      __m256 v = _mm256_mul_ps(
          _mm256_cvtepi32_ps(_mm256_sub_epi32(a, corr)), s);
      if (ep.col_bias != nullptr)
        v = _mm256_add_ps(v, _mm256_loadu_ps(ep.col_bias + j0 + jj));
      else if (ep.row_bias != nullptr)
        v = _mm256_add_ps(v, _mm256_set1_ps(ep.row_bias[i]));
      if (ep.relu) v = _mm256_max_ps(v, zero);  // returns 0 when v is NaN
      _mm256_storeu_ps(crow + jj, v);
    }
    for (; jj < nvalid; ++jj) {
      const int64_t j = j0 + jj;
      const int64_t corr = ep.row_zp
                               ? row_zp * int64_t(ep.wsum[j])
                               : int64_t(ep.col_zp[j]) * ep.wsum[i];
      const float s =
          ep.weight_scale * (ep.row_scale ? row_s : ep.col_scale[j]);
      float v = float(int64_t(arow[jj]) - corr) * s;
      if (ep.col_bias != nullptr)
        v += ep.col_bias[j];
      else if (ep.row_bias != nullptr)
        v += ep.row_bias[i];
      if (ep.relu && !(v > 0.0f)) v = 0.0f;
      crow[jj] = v;
    }
    if (ep.gamma != nullptr) {
      const float* g = ep.gamma + (i / rows_per_rep) * n + j0;
      const float* b = ep.beta + (i / rows_per_rep) * n + j0;
      int64_t t = 0;
      for (; t + 8 <= nvalid; t += 8)
        _mm256_storeu_ps(crow + t, _mm256_mul_ps(_mm256_loadu_ps(crow + t),
                                                 _mm256_loadu_ps(g + t)));
      for (; t < nvalid; ++t) crow[t] *= g[t];
      for (t = 0; t + 8 <= nvalid; t += 8)
        _mm256_storeu_ps(crow + t, _mm256_add_ps(_mm256_loadu_ps(crow + t),
                                                 _mm256_loadu_ps(b + t)));
      for (; t < nvalid; ++t) crow[t] += b[t];
    }
  }
}

// 16-lane requantize for the VNNI kernel: one masked zmm op chain covers a
// full kNR-wide tile row, halving the epilogue work versus the AVX2 form.
// Same per-lane operation sequence as the scalar reference (int32 subtract,
// cvtdq2ps, one mul, one add, max(v, 0), then γ/β as two separate rounded
// steps), so outputs stay bit-identical. fp-contract must be off here:
// target("avx512f") brings FMA into scope and GCC contracts mul+add pairs
// — even _mm512_mul_ps/_mm512_add_ps intrinsics, which lower to plain
// vector MULT/PLUS — into one fused rounding, silently breaking the
// bit-exactness contract. (The AVX2 epilogue is immune only because
// target("avx2") does not enable FMA.) Partial panels use lane masks
// rather than a scalar tail so every element goes through the same
// instruction sequence.
__attribute__((target("avx512f"), optimize("fp-contract=off"))) void
requantize_tile_avx512(
    const int32_t* acc, int64_t i0, int64_t mvalid, int64_t j0,
    int64_t nvalid, int64_t m, int64_t n, const Int8Epilogue& ep, float* c,
    int64_t ldc) {
  const int64_t rows_per_rep =
      ep.replicas > 0 ? std::max<int64_t>(1, m / ep.replicas) : m;
  const __m512 zero = _mm512_setzero_ps();
  const __mmask16 mk = static_cast<__mmask16>((1u << nvalid) - 1u);
  for (int64_t r = 0; r < mvalid; ++r) {
    const int64_t i = i0 + r;
    // The accumulator tile is always full kNR wide; only the epilogue
    // operands and the C store need masking against n.
    const __m512i a = _mm512_loadu_si512(acc + r * kNR);
    float* crow = c + i * ldc + j0;
    __m512i corr;
    __m512 s;
    if (ep.row_zp != nullptr) {
      corr = _mm512_mullo_epi32(_mm512_set1_epi32(int32_t(ep.row_zp[i])),
                                _mm512_maskz_loadu_epi32(mk, ep.wsum + j0));
      s = _mm512_set1_ps(ep.weight_scale * ep.row_scale[i]);
    } else {
      corr = _mm512_mullo_epi32(_mm512_maskz_loadu_epi32(mk, ep.col_zp + j0),
                                _mm512_set1_epi32(ep.wsum[i]));
      s = _mm512_mul_ps(_mm512_set1_ps(ep.weight_scale),
                        _mm512_maskz_loadu_ps(mk, ep.col_scale + j0));
    }
    __m512 v =
        _mm512_mul_ps(_mm512_cvtepi32_ps(_mm512_sub_epi32(a, corr)), s);
    if (ep.col_bias != nullptr)
      v = _mm512_add_ps(v, _mm512_maskz_loadu_ps(mk, ep.col_bias + j0));
    else if (ep.row_bias != nullptr)
      v = _mm512_add_ps(v, _mm512_set1_ps(ep.row_bias[i]));
    if (ep.relu) v = _mm512_max_ps(v, zero);  // returns 0 when v is NaN
    if (ep.gamma != nullptr) {
      const float* g = ep.gamma + (i / rows_per_rep) * n + j0;
      const float* b = ep.beta + (i / rows_per_rep) * n + j0;
      v = _mm512_mul_ps(v, _mm512_maskz_loadu_ps(mk, g));
      v = _mm512_add_ps(v, _mm512_maskz_loadu_ps(mk, b));
    }
    _mm512_mask_storeu_ps(crow, mk, v);
  }
}

#endif  // RIPPLE_X86

}  // namespace

// ---- driver ----------------------------------------------------------------

void int8_gemm(RowsAre mode, const void* rows, int64_t m, int64_t k,
               const void* panels, int64_t n, const Int8Epilogue& ep,
               float* c, int64_t ldc) {
  if (m <= 0 || n <= 0) return;
  const Int8Kernel ki = g_kernel;
  const TileFn fn = mode == RowsAre::kU8 ? ki.u8rows : ki.s8rows;
  const uint8_t* rowbytes = static_cast<const uint8_t*>(rows);
  const uint8_t* panelbytes = static_cast<const uint8_t*>(panels);
  const int64_t k4 = padded_k(k);
  const int64_t kgroups = k4 / kKG;
  const int64_t pb = panel_bytes(k);
  const int64_t npanels = num_panels(n);
  const int64_t mr = ki.mr;
  const int64_t mblocks = ceil_div(m, mr);
  // Interleave the quantized rows into per-row-block A blocks — [g][r][kKG]
  // bytes, remainder rows aliased to the last valid row — so the tile
  // kernels broadcast from contiguous memory. One linear pass over A (tiny
  // next to the k·n panel traffic), repaid once per column panel.
  const int64_t astride = kgroups * mr * kKG;
  thread_local std::vector<uint8_t> ablocks;
  ablocks.resize(static_cast<size_t>(mblocks * astride));
  uint8_t* ab = ablocks.data();
  for (int64_t b = 0; b < mblocks; ++b) {
    const int64_t i0 = b * mr;
    uint8_t* dst = ab + b * astride;
    for (int64_t r = 0; r < mr; ++r) {
      const uint8_t* src = rowbytes + std::min(i0 + r, m - 1) * k4;
      for (int64_t g = 0; g < kgroups; ++g)
        std::memcpy(dst + (g * mr + r) * kKG, src + g * kKG, kKG);
    }
  }
  // The AVX2 epilogue's int32 correction arithmetic is exact only while
  // |acc − zp·wsum| ≤ 127·128·k fits an int32; past that (k > 2^17,
  // far beyond any real layer) keep the int64 scalar reference.
#ifdef RIPPLE_X86
  const bool vec_ep = ki.simd && k <= (int64_t(1) << 17);
#endif
  // Column panels are the parallel axis: conv lowerings are a handful of
  // weight rows against thousands of output-position panels, so splitting
  // on M would leave the pool idle (the fp32 driver's small-M gap this
  // subsystem's carryover fixes). Each (panel, row-block) tile is written
  // by exactly one task, so the split never changes results. Work, in
  // fp32 FLOPs of the same time: a u8×s8 dot step does four multiply-adds
  // per 32-bit lane where an fp32 FMA does one, so each multiply-add per
  // row, panel column and depth step counts 2/4 (perf_layers
  // BM_Int8GemmVsFp32 runs 1–6× the fp32 GEMM's FLOP rate).
  parallel_for(
      npanels, m * kNR * k / 2,
      [&](int64_t p0, int64_t p1) {
        alignas(64) int32_t acc[kMR * kNR];
        for (int64_t p = p0; p < p1; ++p) {
          const uint8_t* panel = panelbytes + p * pb;
          const int64_t j0 = p * kNR;
          const int64_t nvalid = std::min(kNR, n - j0);
          for (int64_t b = 0; b < mblocks; ++b) {
            const int64_t i0 = b * mr;
            const int64_t mvalid = std::min(mr, m - i0);
            fn(ab + b * astride, kgroups, panel, acc);
#ifdef RIPPLE_X86
            if (vec_ep) {
              if (ki.simd512)
                requantize_tile_avx512(acc, i0, mvalid, j0, nvalid, m, n, ep,
                                       c, ldc);
              else
                requantize_tile_avx2(acc, i0, mvalid, j0, nvalid, m, n, ep, c,
                                     ldc);
              continue;
            }
#endif
            requantize_tile(acc, i0, mvalid, j0, nvalid, m, n, ep, c, ldc);
          }
        }
      });
}

// ---- packing & dynamic quantization ----------------------------------------

void pack_panels_s8(const int8_t* src, int64_t n, int64_t k, int8_t* dst) {
  std::memset(dst, 0, static_cast<size_t>(packed_bytes(n, k)));
  const int64_t pb = panel_bytes(k);
  for (int64_t j = 0; j < n; ++j) {
    const int8_t* row = src + j * k;
    int8_t* panel = dst + (j / kNR) * pb + (j % kNR) * kKG;
    for (int64_t kk = 0; kk < k; ++kk)
      panel[(kk / kKG) * kKG * kNR + kk % kKG] = row[kk];
  }
}

namespace {

// 7-bit affine from a [lo, hi] range. Keeping activations in [0, 127]
// costs half a bit of precision but buys the no-saturation guarantee that
// makes scalar/AVX2/VNNI bit-identical.
inline void range_to_affine(float lo, float hi, float* scale, int32_t* zp) {
  if (hi > lo) {
    // Clamp to FLT_MIN so the reciprocal used by quantize_value is finite
    // even for denormal-width ranges.
    const float s = std::max((hi - lo) / 127.0f, 1.17549435e-38f);
    *scale = s;
    *zp = std::clamp<int32_t>(int32_t(std::lrintf(-lo / s)), 0, 127);
  } else {
    // Constant input: pick the affine that reproduces it exactly.
    const float c = lo;
    *scale = std::fabs(c) > 0.0f ? std::fabs(c) / 127.0f : 1.0f;
    *zp = c < 0.0f ? 127 : 0;
  }
}

inline uint8_t quantize_value(float x, float inv_scale, int32_t zp) {
  return uint8_t(
      std::clamp<int32_t>(int32_t(std::lrintf(x * inv_scale)) + zp, 0, 127));
}

#ifdef RIPPLE_X86

// AVX2 min/max scan of one row. Lane-wise min/max then a horizontal
// reduction visits every element exactly once, so the result equals the
// scalar scan's (min/max are exact — no rounding, order-free).
__attribute__((target("avx2"))) void row_range_avx2(const float* row,
                                                    int64_t k, float* lo_out,
                                                    float* hi_out) {
  float lo = row[0], hi = row[0];
  int64_t kk = 0;
  if (k >= 8) {
    __m256 vlo = _mm256_loadu_ps(row);
    __m256 vhi = vlo;
    for (kk = 8; kk + 8 <= k; kk += 8) {
      const __m256 v = _mm256_loadu_ps(row + kk);
      vlo = _mm256_min_ps(vlo, v);
      vhi = _mm256_max_ps(vhi, v);
    }
    alignas(32) float tmp[8];
    _mm256_store_ps(tmp, vlo);
    lo = tmp[0];
    for (int t = 1; t < 8; ++t) lo = std::min(lo, tmp[t]);
    _mm256_store_ps(tmp, vhi);
    hi = tmp[0];
    for (int t = 1; t < 8; ++t) hi = std::max(hi, tmp[t]);
  }
  for (; kk < k; ++kk) {
    lo = std::min(lo, row[kk]);
    hi = std::max(hi, row[kk]);
  }
  *lo_out = lo;
  *hi_out = hi;
}

// Quantizes 8 floats to 8 clamped u8 codes. cvtps2dq rounds to nearest
// even under the default MXCSR mode — the same rounding lrintf performs —
// so the codes match quantize_value bit-for-bit.
__attribute__((target("avx2"))) inline __m128i quantize8_avx2(
    const float* x, __m256 vinv, __m256i vzp) {
  __m256i q = _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(x), vinv));
  q = _mm256_add_epi32(q, vzp);
  q = _mm256_max_epi32(q, _mm256_setzero_si256());
  q = _mm256_min_epi32(q, _mm256_set1_epi32(127));
  const __m128i p16 = _mm_packus_epi32(_mm256_castsi256_si128(q),
                                       _mm256_extracti128_si256(q, 1));
  return _mm_packus_epi16(p16, p16);  // 8 codes in the low 64 bits
}

__attribute__((target("avx2"))) void quantize_row_avx2(const float* row,
                                                       int64_t k, int64_t k4,
                                                       uint8_t* out,
                                                       float* scale,
                                                       int32_t* zp) {
  float lo, hi;
  row_range_avx2(row, k, &lo, &hi);
  range_to_affine(lo, hi, scale, zp);
  const float inv = 1.0f / *scale;
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256i vzp = _mm256_set1_epi32(*zp);
  int64_t kk = 0;
  for (; kk + 8 <= k; kk += 8)
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + kk),
                     quantize8_avx2(row + kk, vinv, vzp));
  for (; kk < k; ++kk) out[kk] = quantize_value(row[kk], inv, *zp);
  for (; kk < k4; ++kk) out[kk] = 0;
}

// Quantize+pack of one full kNR-wide panel: each K group quantizes 4 rows
// of 16 column codes, then a 4×16 byte transpose (three unpack levels)
// lands them directly in panel order out[j·kKG + kk] — no strided
// single-byte stores. Codes match quantize_value bit-for-bit (same
// rounding as quantize8_avx2 above); `inv` is the precomputed 1/scale per
// column, the same division result the scalar path uses.
__attribute__((target("avx2"))) void pack_panel_avx2(const float* cols,
                                                     int64_t k, int64_t l,
                                                     int64_t j0,
                                                     uint8_t* panel,
                                                     const float* inv,
                                                     const int32_t* zp) {
  const __m256 vinv0 = _mm256_loadu_ps(inv + j0);
  const __m256 vinv1 = _mm256_loadu_ps(inv + j0 + 8);
  const __m256i vzp0 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(zp + j0));
  const __m256i vzp1 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(zp + j0 + 8));
  const int64_t kfull = k & ~int64_t(kKG - 1);
  for (int64_t kk = 0; kk < kfull; kk += kKG) {
    __m128i rows[kKG];
    for (int64_t t = 0; t < kKG; ++t) {
      const float* row = cols + (kk + t) * l + j0;
      rows[t] = _mm_unpacklo_epi64(quantize8_avx2(row, vinv0, vzp0),
                                   quantize8_avx2(row + 8, vinv1, vzp1));
    }
    const __m128i t0 = _mm_unpacklo_epi8(rows[0], rows[1]);
    const __m128i t1 = _mm_unpackhi_epi8(rows[0], rows[1]);
    const __m128i t2 = _mm_unpacklo_epi8(rows[2], rows[3]);
    const __m128i t3 = _mm_unpackhi_epi8(rows[2], rows[3]);
    uint8_t* out = panel + (kk / kKG) * kKG * kNR;
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out),
                     _mm_unpacklo_epi16(t0, t2));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16),
                     _mm_unpackhi_epi16(t0, t2));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 32),
                     _mm_unpacklo_epi16(t1, t3));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 48),
                     _mm_unpackhi_epi16(t1, t3));
  }
  for (int64_t kk = kfull; kk < k; ++kk) {
    const float* row = cols + kk * l + j0;
    uint8_t* out = panel + (kk / kKG) * kKG * kNR + kk % kKG;
    for (int64_t j = 0; j < kNR; ++j)
      out[j * kKG] = quantize_value(row[j], inv[j0 + j], zp[j0 + j]);
  }
}

#endif  // RIPPLE_X86

}  // namespace

void quantize_rows_u8(const float* x, int64_t m, int64_t k, uint8_t* dst,
                      float* scale, int32_t* zp) {
  const int64_t k4 = padded_k(k);
#ifdef RIPPLE_X86
  const bool simd = g_kernel.simd;
#endif
  // Work: each row is read twice (range, then quantize) and written once.
  parallel_for(
      m, 2 * k * int64_t{sizeof(float)} + k4,
      [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
          const float* row = x + i * k;
          uint8_t* out = dst + i * k4;
#ifdef RIPPLE_X86
          if (simd) {
            quantize_row_avx2(row, k, k4, out, &scale[i], &zp[i]);
            continue;
          }
#endif
          float lo = row[0], hi = row[0];
          for (int64_t kk = 1; kk < k; ++kk) {
            lo = std::min(lo, row[kk]);
            hi = std::max(hi, row[kk]);
          }
          range_to_affine(lo, hi, &scale[i], &zp[i]);
          const float inv = 1.0f / scale[i];
          for (int64_t kk = 0; kk < k; ++kk)
            out[kk] = quantize_value(row[kk], inv, zp[i]);
          for (int64_t kk = k; kk < k4; ++kk) out[kk] = 0;
        }
      });
}

void quantize_pack_cols_u8(const float* cols, int64_t k, int64_t l,
                           uint8_t* dst, float* scale, int32_t* zp) {
  // Per-column ranges, swept row-major so the strided matrix is read
  // contiguously. One column is one output position's receptive field, so
  // its affine is a pure function of that position's inputs — independent
  // of batch grouping or replica count, which is what keeps reduced-row
  // plan traces and full-row graph passes bit-identical.
  thread_local std::vector<float> lo_buf, hi_buf;
  lo_buf.resize(static_cast<size_t>(l));
  hi_buf.resize(static_cast<size_t>(l));
  float* lo = lo_buf.data();
  float* hi = hi_buf.data();
  std::memcpy(lo, cols, static_cast<size_t>(l) * sizeof(float));
  std::memcpy(hi, cols, static_cast<size_t>(l) * sizeof(float));
  for (int64_t kk = 1; kk < k; ++kk) {
    const float* row = cols + kk * l;
    for (int64_t j = 0; j < l; ++j) {
      lo[j] = std::min(lo[j], row[j]);
      hi[j] = std::max(hi[j], row[j]);
    }
  }
  for (int64_t j = 0; j < l; ++j) range_to_affine(lo[j], hi[j], &scale[j], &zp[j]);
#ifdef RIPPLE_X86
  const bool simd = g_kernel.simd;
  thread_local std::vector<float> inv_buf;
  if (simd) {
    inv_buf.resize(static_cast<size_t>(l));
    for (int64_t j = 0; j < l; ++j) inv_buf[j] = 1.0f / scale[j];
  }
  const float* inv = inv_buf.data();
#endif
  std::memset(dst, 0, static_cast<size_t>(packed_bytes(l, k)));
  const int64_t pb = panel_bytes(k);
  // Work: a panel reads kNR·k floats and writes kNR·k bytes.
  parallel_for(
      num_panels(l), kNR * k * int64_t{sizeof(float) + 1},
      [&](int64_t p0, int64_t p1) {
        for (int64_t p = p0; p < p1; ++p) {
          uint8_t* panel = dst + p * pb;
          const int64_t jw = std::min(kNR, l - p * kNR);
#ifdef RIPPLE_X86
          if (simd && jw == kNR) {
            pack_panel_avx2(cols, k, l, p * kNR, panel, inv, zp);
            continue;
          }
#endif
          for (int64_t kk = 0; kk < k; ++kk) {
            const float* row = cols + kk * l + p * kNR;
            uint8_t* out = panel + (kk / kKG) * kKG * kNR + kk % kKG;
            for (int64_t j = 0; j < jw; ++j)
              out[j * kKG] =
                  quantize_value(row[j], 1.0f / scale[p * kNR + j],
                                 zp[p * kNR + j]);
          }
        }
      });
}

// ---- backend selection hooks ----------------------------------------------

void set_int8_backend(Int8Backend backend) {
  switch (backend) {
    case Int8Backend::kAuto:
      g_kernel = detect_kernel();
      break;
    case Int8Backend::kScalar:
      g_kernel = kScalarKernel;
      break;
    case Int8Backend::kSimd:
      g_kernel = best_simd_kernel();
      break;
  }
}

const char* int8_backend_name() { return g_kernel.name; }

}  // namespace ripple::quant::int8
