// Packed single-precision GEMM kernels (row-major).
//
// Three transpose variants cover everything the autograd engine needs:
//   gemm_nn:  C += A · B        (M×K, K×N)
//   gemm_nt:  C += A · Bᵀ       (M×K, N×K)
//   gemm_tn:  C += Aᵀ · B       (K×M, K×N)
// All kernels accumulate into C (callers zero C first when needed) so the
// same routine serves both forward passes and gradient accumulation.
//
// Implementation: BLIS-style register-blocked micro-kernel over packed A/B
// panels held in per-thread scratch buffers. A portable scalar micro-kernel
// is always compiled; AVX2/FMA and AVX-512 kernels are compiled with
// per-function target attributes and selected at runtime from CPUID
// (override with RIPPLE_SIMD=0 or set_gemm_backend). The `_ex` entry points
// take a pluggable epilogue (bias add along rows or columns, optional ReLU)
// applied while the output block is cache-hot, so conv2d/linear fuse their
// bias/activation pass instead of re-walking the output.
#pragma once

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "tensor/tensor.h"

namespace ripple {

/// Fused output transform applied after the C += A·B accumulation.
/// row_bias[i] is added to every element of row i (conv: per-out-channel
/// bias of a [Cout, OH*OW] output); col_bias[j] to every element of column
/// j (linear: per-feature bias of an [N, Fout] output). relu clamps at 0.
struct GemmEpilogue {
  const float* row_bias = nullptr;
  const float* col_bias = nullptr;
  bool relu = false;

  bool active() const {
    return row_bias != nullptr || col_bias != nullptr || relu;
  }
};

/// C[M,N] += A[M,K] · B[K,N], then epilogue.
void gemm_nn_ex(int64_t m, int64_t n, int64_t k, const float* a,
                const float* b, float* c, const GemmEpilogue& ep);

/// C[M,N] += A[M,K] · B[N,K]ᵀ, then epilogue.
void gemm_nt_ex(int64_t m, int64_t n, int64_t k, const float* a,
                const float* b, float* c, const GemmEpilogue& ep);

/// C[M,N] += A[K,M]ᵀ · B[K,N], then epilogue.
void gemm_tn_ex(int64_t m, int64_t n, int64_t k, const float* a,
                const float* b, float* c, const GemmEpilogue& ep);

/// C[M,N] += A[M,K] · B[K,N]
void gemm_nn(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
             float* c);

/// C[M,N] += A[M,K] · B[N,K]ᵀ
void gemm_nt(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
             float* c);

/// C[M,N] += A[K,M]ᵀ · B[K,N]
void gemm_tn(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
             float* c);

/// A matrix pre-packed into micro-kernel panels. Pack conv/linear weights
/// once per call and reuse across the batch (and across the T folded
/// Monte-Carlo replicas) instead of re-packing per sample.
struct PackedGemmA {
  int64_t m = 0;
  int64_t k = 0;
  std::vector<float> panels;  // internal layout; see gemm.cpp
};

/// Packs row-major A[M,K] for repeated gemm_nn_prepacked calls.
PackedGemmA pack_gemm_a(int64_t m, int64_t k, const float* a);

/// Floats of B-panel scratch one gemm_nn_prepacked call over n columns at
/// depth k needs (enough for every dispatchable kernel width).
int64_t gemm_nn_prepacked_scratch(int64_t n, int64_t k);

/// C[M,N] += packed_A · B[K,N], then epilogue, on the calling thread only.
/// B and C are row-major with leading dimensions ldb and ldc, so a call can
/// cover any column slice of a larger product; B panels are packed into
/// `scratch` (gemm_nn_prepacked_scratch(n, a.k) floats). Callers
/// parallelize over independent calls. Every element sees the same
/// micro-kernel, packed A and k-block order as in gemm_nn_ex, so the result
/// is bit-identical to gemm_nn_ex and to any split of the columns.
void gemm_nn_prepacked(const PackedGemmA& a, int64_t n, const float* b,
                       int64_t ldb, float* c, int64_t ldc,
                       const GemmEpilogue& ep, float* scratch);

/// The B operand of gemm_nt (row-major B[N,K], used as Bᵀ) pre-packed into
/// micro-kernel panels. Unlike A panels (always kMR wide), B panels are nr
/// elements wide where nr depends on the dispatched kernel; `nr` records
/// which kernel the panels were packed for, and consumers must re-pack when
/// it no longer matches (see pack_gemm_b_nt_cached).
struct PackedGemmB {
  int64_t n = 0;
  int64_t k = 0;
  int64_t nr = 0;
  std::vector<float> panels;  // internal layout; see gemm.cpp
};

/// Packs row-major B[N,K] for repeated gemm_nt_prepacked calls with the
/// currently dispatched kernel width.
PackedGemmB pack_gemm_b_nt(int64_t n, int64_t k, const float* b);

/// C[M,N] += A[M,K] · packed_Bᵀ, then epilogue. Bit-identical to
/// gemm_nt_ex on the same operands (packing is pure data movement; the
/// block loop and micro-kernel are shared). Requires b.nr to match the
/// dispatched kernel.
void gemm_nt_prepacked(int64_t m, const float* a, const PackedGemmB& b,
                       float* c, const GemmEpilogue& ep = {});

/// Read-mostly cache of packed weight panels keyed by (data pointer, dims)
/// — deployed conv weights (A of gemm_nn) and linear/LSTM weights (B of
/// gemm_nt) are packed once per *session* instead of once per forward
/// call. Lifecycle: a single-threaded warm-up pass runs with the cache
/// installed (PackCacheScope) and records every packing, then freeze()
/// makes lookups lock-free and the cache safe to share across any number
/// of concurrently serving threads. clear() empties and re-opens recording
/// — required after in-place weight mutation (fault injection), which
/// keeps the data pointer while changing the values.
class PackedACache {
 public:
  /// Cached panels for A, or nullptr. Lock-free once frozen; during
  /// recording only the (single) warm-up thread may call.
  const PackedGemmA* find(const float* a, int64_t m, int64_t k) const;
  /// Records a packing (recording phase only); returns the stored copy.
  const PackedGemmA* insert(const float* a, int64_t m, int64_t k,
                            PackedGemmA packed);
  /// Cached gemm_nt B panels for `b`, or nullptr; same locking contract.
  const PackedGemmB* find_b(const float* b, int64_t n, int64_t k) const;
  const PackedGemmB* insert_b(const float* b, int64_t n, int64_t k,
                              PackedGemmB packed);
  void freeze();
  bool frozen() const;
  void clear();
  size_t size() const;

 private:
  struct Key {
    const float* a;
    int64_t m;
    int64_t k;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };

  std::atomic<bool> frozen_{false};
  std::unordered_map<Key, PackedGemmA, KeyHash> map_;
  std::unordered_map<Key, PackedGemmB, KeyHash> bmap_;
};

/// The pack cache installed on this thread (nullptr outside any scope).
/// Ops that pack weights consult it via pack_gemm_a_cached.
PackedACache* active_pack_cache();

/// RAII: installs `cache` as this thread's active pack cache.
class PackCacheScope {
 public:
  explicit PackCacheScope(PackedACache* cache);
  ~PackCacheScope();
  PackCacheScope(const PackCacheScope&) = delete;
  PackCacheScope& operator=(const PackCacheScope&) = delete;

 private:
  PackedACache* previous_;
};

/// Packs A[M,K] or fetches it from the active cache. `local` is scratch for
/// the uncached path; the returned reference is valid for the current call.
const PackedGemmA& pack_gemm_a_cached(int64_t m, int64_t k, const float* a,
                                      PackedGemmA& local);

/// Packs the gemm_nt B[N,K] operand or fetches it from the active cache.
/// A cached entry whose `nr` no longer matches the dispatched kernel is
/// ignored (re-packed into `local`), so a backend switch after freeze()
/// degrades to per-call packing instead of wrong results.
const PackedGemmB& pack_gemm_b_nt_cached(int64_t n, int64_t k, const float* b,
                                         PackedGemmB& local);

/// Kernel selection. kAuto probes CPUID once (honouring RIPPLE_SIMD=0);
/// kScalar/kSimd force a backend — used by tests to cross-check the SIMD
/// kernels against the portable one.
enum class GemmBackend { kAuto, kScalar, kSimd };
void set_gemm_backend(GemmBackend backend);
/// Name of the micro-kernel currently dispatched: "scalar", "avx2", or
/// "avx512".
const char* gemm_backend_name();

/// Reference kernels (the pre-optimization blocked loops, serial). Kept as
/// the correctness oracle for tests and the baseline for BENCH_gemm.json.
void gemm_ref_nn(int64_t m, int64_t n, int64_t k, const float* a,
                 const float* b, float* c);
void gemm_ref_nt(int64_t m, int64_t n, int64_t k, const float* a,
                 const float* b, float* c);
void gemm_ref_tn(int64_t m, int64_t n, int64_t k, const float* a,
                 const float* b, float* c);

/// out = a · b for 2-d tensors; allocates the result and zeroes it first.
Tensor matmul(const Tensor& a, const Tensor& b);

}  // namespace ripple
