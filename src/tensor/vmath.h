// Vectorized transcendental kernels for the serving hot path.
//
// Serving time on recurrent models is dominated not by GEMM but by the
// per-element σ/tanh gate activations (libm calls, ~10–15 ns each: a
// [8, 512] gate block costs more than the int8 GEMM that produced it).
// These kernels replace them with polynomial forms (Cephes-style range
// reduction, ≤ a few ulp) evaluated 16 lanes at a time under AVX-512 or 8
// under AVX2+FMA. A length that is not a multiple of the lane count ends
// in one masked vector iteration (nothing is read or written past n), so
// short spans such as one LSTM cell's 8 gate elements stay vectorized.
//
// The contract that makes them usable on verified paths: the scalar form
// (vtanh1/vsigmoid1) and the vector form perform the SAME per-element IEEE
// operation sequence — every multiply, fma, add, compare-select and the
// int-exponent scale step rounds identically lane-wise — so results are
// bit-identical regardless of chunking, of where the masked tail falls,
// and across RIPPLE_SIMD=0/1 builds. The compiled-plan verification gate
// (plan output memcmp'd against the graph oracle) therefore keeps holding
// when both sides call these kernels, in any segmentation.
//
// NaN inputs are unspecified (they cannot reach the gate activations:
// upstream GEMMs and norms produce finite values from finite weights).
#pragma once

#include <cstdint>

namespace ripple {

/// y[i] = tanh(x[i]).
void vtanh(const float* x, float* y, int64_t n);
/// y[i] = 1 / (1 + exp(-x[i])) (logistic sigmoid).
void vsigmoid(const float* x, float* y, int64_t n);

/// Single-element forms: the exact scalar operation sequence the vector
/// kernels perform per lane — the bit-exactness oracle, and the whole
/// implementation when SIMD is off (RIPPLE_SIMD=0 or no AVX2+FMA).
float vtanh1(float x);
float vsigmoid1(float x);

}  // namespace ripple
