#include "tensor/vmath.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/env.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define RIPPLE_X86 1
#endif

namespace ripple {
namespace {

// Cephes expf constants: n = rint(x·log2e), r = x − n·ln2_hi − n·ln2_lo,
// exp(r) ≈ 1 + r + r²·P(r), result scaled by 2^n through the exponent
// bits. Inputs are clamped to [-87, 88] so n ∈ [-126, 127] and the scale
// stays a normal float; the consumers below only need exp of clamped
// arguments (σ and tanh saturate long before the clamp distorts them).
constexpr float kExpLo = -87.0f;
constexpr float kExpHi = 88.0f;
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
constexpr float kExpC0 = 1.9875691500e-4f;
constexpr float kExpC1 = 1.3981999507e-3f;
constexpr float kExpC2 = 8.3334519073e-3f;
constexpr float kExpC3 = 4.1665795894e-2f;
constexpr float kExpC4 = 1.6666665459e-1f;
constexpr float kExpC5 = 5.0000001201e-1f;

// Cephes tanhf: odd polynomial x + x³·Q(x²) below 0.625, else
// 1 − 2/(exp(2|x|)+1) with the sign copied back.
constexpr float kTanhSmall = 0.625f;
constexpr float kTanhQ0 = -5.70498872745e-3f;
constexpr float kTanhQ1 = 2.06390887954e-2f;
constexpr float kTanhQ2 = -5.37397155531e-2f;
constexpr float kTanhQ3 = 1.33314422036e-1f;
constexpr float kTanhQ4 = -3.33332819422e-1f;

// std::fma is the correctly rounded fused op — the same rounding
// vfmadd213ps performs per lane, which is what keeps the scalar and
// vector forms bit-identical.
inline float exp_core(float x) {
  x = std::min(std::max(x, kExpLo), kExpHi);
  const float nf = std::nearbyintf(x * kLog2e);
  float r = std::fma(nf, -kLn2Hi, x);
  r = std::fma(nf, -kLn2Lo, r);
  float p = kExpC0;
  p = std::fma(p, r, kExpC1);
  p = std::fma(p, r, kExpC2);
  p = std::fma(p, r, kExpC3);
  p = std::fma(p, r, kExpC4);
  p = std::fma(p, r, kExpC5);
  const float e = std::fma(r * r, p, r) + 1.0f;
  const uint32_t bits = uint32_t(int32_t(nf) + 127) << 23;
  float s;
  std::memcpy(&s, &bits, sizeof(s));
  return e * s;
}

#ifdef RIPPLE_X86

__attribute__((target("avx2,fma"))) inline __m256 exp_core8(__m256 x) {
  x = _mm256_min_ps(_mm256_max_ps(x, _mm256_set1_ps(kExpLo)),
                    _mm256_set1_ps(kExpHi));
  const __m256 nf =
      _mm256_round_ps(_mm256_mul_ps(x, _mm256_set1_ps(kLog2e)),
                      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_fmadd_ps(nf, _mm256_set1_ps(-kLn2Hi), x);
  r = _mm256_fmadd_ps(nf, _mm256_set1_ps(-kLn2Lo), r);
  __m256 p = _mm256_set1_ps(kExpC0);
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpC1));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpC2));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpC3));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpC4));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpC5));
  const __m256 e = _mm256_add_ps(
      _mm256_fmadd_ps(_mm256_mul_ps(r, r), p, r), _mm256_set1_ps(1.0f));
  const __m256i n = _mm256_cvtps_epi32(nf);
  const __m256 s = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(127)), 23));
  return _mm256_mul_ps(e, s);
}

__attribute__((target("avx2,fma"))) inline __m256 sigmoid8(__m256 x) {
  const __m256 e = exp_core8(_mm256_sub_ps(_mm256_setzero_ps(), x));
  return _mm256_div_ps(_mm256_set1_ps(1.0f),
                       _mm256_add_ps(e, _mm256_set1_ps(1.0f)));
}

__attribute__((target("avx2,fma"))) inline __m256 tanh8(__m256 x) {
  const __m256 signmask = _mm256_set1_ps(-0.0f);
  const __m256 z = _mm256_andnot_ps(signmask, x);
  // Large branch: 1 − 2/(exp(2z)+1), sign restored.
  const __m256 e = exp_core8(_mm256_add_ps(z, z));
  const __m256 big = _mm256_sub_ps(
      _mm256_set1_ps(1.0f),
      _mm256_div_ps(_mm256_set1_ps(2.0f),
                    _mm256_add_ps(e, _mm256_set1_ps(1.0f))));
  const __m256 big_signed =
      _mm256_or_ps(big, _mm256_and_ps(x, signmask));
  // Small branch: x + x³·Q(x²).
  const __m256 x2 = _mm256_mul_ps(x, x);
  __m256 q = _mm256_set1_ps(kTanhQ0);
  q = _mm256_fmadd_ps(q, x2, _mm256_set1_ps(kTanhQ1));
  q = _mm256_fmadd_ps(q, x2, _mm256_set1_ps(kTanhQ2));
  q = _mm256_fmadd_ps(q, x2, _mm256_set1_ps(kTanhQ3));
  q = _mm256_fmadd_ps(q, x2, _mm256_set1_ps(kTanhQ4));
  const __m256 small = _mm256_fmadd_ps(_mm256_mul_ps(x2, x), q, x);
  const __m256 is_small =
      _mm256_cmp_ps(z, _mm256_set1_ps(kTanhSmall), _CMP_LT_OQ);
  return _mm256_blendv_ps(big_signed, small, is_small);
}

// Lane mask selecting the first `rem` (1..7) of 8 lanes for
// maskload/maskstore: lane k is on when its index is below rem.
__attribute__((target("avx2,fma"))) inline __m256i tail_mask8(int64_t rem) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(rem)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// The remainder runs as one masked iteration: masked-off lanes load 0.0f
// (never touching memory past x[n-1]), compute a discarded value, and are
// not stored. Lanes are independent, so the valid ones round exactly as
// in a full vector.
__attribute__((target("avx2,fma"))) void vtanh_avx2(const float* x, float* y,
                                                    int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(y + i, tanh8(_mm256_loadu_ps(x + i)));
  if (i < n) {
    const __m256i m = tail_mask8(n - i);
    _mm256_maskstore_ps(y + i, m, tanh8(_mm256_maskload_ps(x + i, m)));
  }
}

__attribute__((target("avx2,fma"))) void vsigmoid_avx2(const float* x,
                                                        float* y, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(y + i, sigmoid8(_mm256_loadu_ps(x + i)));
  if (i < n) {
    const __m256i m = tail_mask8(n - i);
    _mm256_maskstore_ps(y + i, m, sigmoid8(_mm256_maskload_ps(x + i, m)));
  }
}

// 16-lane AVX-512 mirrors of the kernels above: every operation is the
// same IEEE op at double width (roundscale 0x08 ≡ round-to-nearest with
// exceptions suppressed, mask-blend ≡ blendv), so lanes stay bit-identical
// to the scalar forms and the 8/16-lane dispatch never changes results.

__attribute__((target("avx512f,avx512dq"))) inline __m512 exp_core16(__m512 x) {
  x = _mm512_min_ps(_mm512_max_ps(x, _mm512_set1_ps(kExpLo)),
                    _mm512_set1_ps(kExpHi));
  const __m512 nf = _mm512_roundscale_ps(
      _mm512_mul_ps(x, _mm512_set1_ps(kLog2e)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m512 r = _mm512_fmadd_ps(nf, _mm512_set1_ps(-kLn2Hi), x);
  r = _mm512_fmadd_ps(nf, _mm512_set1_ps(-kLn2Lo), r);
  __m512 p = _mm512_set1_ps(kExpC0);
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(kExpC1));
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(kExpC2));
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(kExpC3));
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(kExpC4));
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(kExpC5));
  const __m512 e = _mm512_add_ps(
      _mm512_fmadd_ps(_mm512_mul_ps(r, r), p, r), _mm512_set1_ps(1.0f));
  const __m512i n = _mm512_cvtps_epi32(nf);
  const __m512 s = _mm512_castsi512_ps(
      _mm512_slli_epi32(_mm512_add_epi32(n, _mm512_set1_epi32(127)), 23));
  return _mm512_mul_ps(e, s);
}

__attribute__((target("avx512f,avx512dq"))) inline __m512 sigmoid16(__m512 x) {
  const __m512 e = exp_core16(_mm512_sub_ps(_mm512_setzero_ps(), x));
  return _mm512_div_ps(_mm512_set1_ps(1.0f),
                       _mm512_add_ps(e, _mm512_set1_ps(1.0f)));
}

__attribute__((target("avx512f,avx512dq"))) inline __m512 tanh16(__m512 x) {
  const __m512 signmask = _mm512_set1_ps(-0.0f);
  const __m512 z = _mm512_andnot_ps(signmask, x);
  const __m512 e = exp_core16(_mm512_add_ps(z, z));
  const __m512 big = _mm512_sub_ps(
      _mm512_set1_ps(1.0f),
      _mm512_div_ps(_mm512_set1_ps(2.0f),
                    _mm512_add_ps(e, _mm512_set1_ps(1.0f))));
  const __m512 big_signed =
      _mm512_or_ps(big, _mm512_and_ps(x, signmask));
  const __m512 x2 = _mm512_mul_ps(x, x);
  __m512 q = _mm512_set1_ps(kTanhQ0);
  q = _mm512_fmadd_ps(q, x2, _mm512_set1_ps(kTanhQ1));
  q = _mm512_fmadd_ps(q, x2, _mm512_set1_ps(kTanhQ2));
  q = _mm512_fmadd_ps(q, x2, _mm512_set1_ps(kTanhQ3));
  q = _mm512_fmadd_ps(q, x2, _mm512_set1_ps(kTanhQ4));
  const __m512 small = _mm512_fmadd_ps(_mm512_mul_ps(x2, x), q, x);
  const __mmask16 is_small =
      _mm512_cmp_ps_mask(z, _mm512_set1_ps(kTanhSmall), _CMP_LT_OQ);
  return _mm512_mask_blend_ps(is_small, big_signed, small);
}

// Masked remainder as in the AVX2 kernels: first `n - i` lanes on.
__attribute__((target("avx512f,avx512dq"))) void vtanh_avx512(const float* x, float* y,
                                                     int64_t n) {
  int64_t i = 0;
  for (; i + 16 <= n; i += 16)
    _mm512_storeu_ps(y + i, tanh16(_mm512_loadu_ps(x + i)));
  if (i < n) {
    const __mmask16 m = static_cast<__mmask16>((1u << (n - i)) - 1);
    _mm512_mask_storeu_ps(y + i, m, tanh16(_mm512_maskz_loadu_ps(m, x + i)));
  }
}

__attribute__((target("avx512f,avx512dq"))) void vsigmoid_avx512(const float* x,
                                                        float* y, int64_t n) {
  int64_t i = 0;
  for (; i + 16 <= n; i += 16)
    _mm512_storeu_ps(y + i, sigmoid16(_mm512_loadu_ps(x + i)));
  if (i < n) {
    const __mmask16 m = static_cast<__mmask16>((1u << (n - i)) - 1);
    _mm512_mask_storeu_ps(y + i, m,
                          sigmoid16(_mm512_maskz_loadu_ps(m, x + i)));
  }
}

bool simd_enabled() {
  static const bool on = env_int("RIPPLE_SIMD", 1) != 0 &&
                         __builtin_cpu_supports("avx2") &&
                         __builtin_cpu_supports("fma");
  return on;
}

bool simd512_enabled() {
  static const bool on = simd_enabled() &&
                         __builtin_cpu_supports("avx512f") &&
                         __builtin_cpu_supports("avx512dq");
  return on;
}

#endif  // RIPPLE_X86

}  // namespace

float vsigmoid1(float x) {
  return 1.0f / (1.0f + exp_core(0.0f - x));
}

float vtanh1(float x) {
  const float z = std::fabs(x);
  const float e = exp_core(z + z);
  const float big = 1.0f - 2.0f / (e + 1.0f);
  const float x2 = x * x;
  float q = kTanhQ0;
  q = std::fma(q, x2, kTanhQ1);
  q = std::fma(q, x2, kTanhQ2);
  q = std::fma(q, x2, kTanhQ3);
  q = std::fma(q, x2, kTanhQ4);
  const float small = std::fma(x2 * x, q, x);
  return z < kTanhSmall ? small : std::copysign(big, x);
}

void vtanh(const float* x, float* y, int64_t n) {
#ifdef RIPPLE_X86
  if (simd512_enabled()) {
    vtanh_avx512(x, y, n);
    return;
  }
  if (simd_enabled()) {
    vtanh_avx2(x, y, n);
    return;
  }
#endif
  for (int64_t i = 0; i < n; ++i) y[i] = vtanh1(x[i]);
}

void vsigmoid(const float* x, float* y, int64_t n) {
#ifdef RIPPLE_X86
  if (simd512_enabled()) {
    vsigmoid_avx512(x, y, n);
    return;
  }
  if (simd_enabled()) {
    vsigmoid_avx2(x, y, n);
    return;
  }
#endif
  for (int64_t i = 0; i < n; ++i) y[i] = vsigmoid1(x[i]);
}

}  // namespace ripple
