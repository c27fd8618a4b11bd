#include "tensor/gemm.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "tensor/env.h"
#include "tensor/threadpool.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define RIPPLE_X86 1
#endif

namespace ripple {
namespace {

// BLIS-style blocking: the micro-kernel computes a MR×nr tile of C from an
// A panel packed as [kc][MR] and a B panel packed as [kc][nr]. kc is capped
// at kKC so both panels stay L1/L2-resident; A blocks are repacked per kMC
// rows, B blocks per kNC columns.
constexpr int64_t kMR = 6;
constexpr int64_t kMaxNR = 32;  // widest kernel (avx512)
constexpr int64_t kKC = 256;
constexpr int64_t kMC = 96;  // multiple of kMR
constexpr int64_t kNC = 2048;

using MicroKernel = void (*)(int64_t kc, const float* ap, const float* bp,
                             float* c, int64_t ldc);

struct KernelInfo {
  int64_t nr;
  MicroKernel fn;
  const char* name;
};

// ---- portable micro-kernel (always compiled) -------------------------------

void kernel_scalar_6x16(int64_t kc, const float* ap, const float* bp, float* c,
                        int64_t ldc) {
  float acc[kMR][16];
  for (int64_t i = 0; i < kMR; ++i)
    for (int64_t j = 0; j < 16; ++j) acc[i][j] = c[i * ldc + j];
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* a = ap + kk * kMR;
    const float* b = bp + kk * 16;
    for (int64_t i = 0; i < kMR; ++i) {
      const float av = a[i];
      for (int64_t j = 0; j < 16; ++j) acc[i][j] += av * b[j];
    }
  }
  for (int64_t i = 0; i < kMR; ++i)
    for (int64_t j = 0; j < 16; ++j) c[i * ldc + j] = acc[i][j];
}

// ---- SIMD micro-kernels (per-function target; selected via CPUID) ----------

#ifdef RIPPLE_X86

__attribute__((target("avx2,fma"))) void kernel_avx2_6x16(int64_t kc,
                                                          const float* ap,
                                                          const float* bp,
                                                          float* c,
                                                          int64_t ldc) {
  __m256 acc[kMR][2];
  for (int64_t i = 0; i < kMR; ++i) {
    acc[i][0] = _mm256_loadu_ps(c + i * ldc);
    acc[i][1] = _mm256_loadu_ps(c + i * ldc + 8);
  }
  for (int64_t kk = 0; kk < kc; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(bp + kk * 16);
    const __m256 b1 = _mm256_loadu_ps(bp + kk * 16 + 8);
    const float* a = ap + kk * kMR;
    for (int64_t i = 0; i < kMR; ++i) {
      const __m256 av = _mm256_broadcast_ss(a + i);
      acc[i][0] = _mm256_fmadd_ps(av, b0, acc[i][0]);
      acc[i][1] = _mm256_fmadd_ps(av, b1, acc[i][1]);
    }
  }
  for (int64_t i = 0; i < kMR; ++i) {
    _mm256_storeu_ps(c + i * ldc, acc[i][0]);
    _mm256_storeu_ps(c + i * ldc + 8, acc[i][1]);
  }
}

__attribute__((target("avx512f"))) void kernel_avx512_6x32(int64_t kc,
                                                           const float* ap,
                                                           const float* bp,
                                                           float* c,
                                                           int64_t ldc) {
  __m512 acc[kMR][2];
  for (int64_t i = 0; i < kMR; ++i) {
    acc[i][0] = _mm512_loadu_ps(c + i * ldc);
    acc[i][1] = _mm512_loadu_ps(c + i * ldc + 16);
  }
  for (int64_t kk = 0; kk < kc; ++kk) {
    const __m512 b0 = _mm512_loadu_ps(bp + kk * 32);
    const __m512 b1 = _mm512_loadu_ps(bp + kk * 32 + 16);
    const float* a = ap + kk * kMR;
    for (int64_t i = 0; i < kMR; ++i) {
      const __m512 av = _mm512_set1_ps(a[i]);
      acc[i][0] = _mm512_fmadd_ps(av, b0, acc[i][0]);
      acc[i][1] = _mm512_fmadd_ps(av, b1, acc[i][1]);
    }
  }
  for (int64_t i = 0; i < kMR; ++i) {
    _mm512_storeu_ps(c + i * ldc, acc[i][0]);
    _mm512_storeu_ps(c + i * ldc + 16, acc[i][1]);
  }
}

#endif  // RIPPLE_X86

// ---- kernel selection ------------------------------------------------------

const KernelInfo kScalarKernel = {16, kernel_scalar_6x16, "scalar"};

KernelInfo best_simd_kernel() {
#ifdef RIPPLE_X86
  if (__builtin_cpu_supports("avx512f"))
    return {32, kernel_avx512_6x32, "avx512"};
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    return {16, kernel_avx2_6x16, "avx2"};
#endif
  return kScalarKernel;
}

KernelInfo detect_kernel() {
  if (env_int("RIPPLE_SIMD", 1) == 0) return kScalarKernel;
  return best_simd_kernel();
}

// Not synchronized against in-flight GEMM calls; set_gemm_backend is a
// test/bench hook, not a hot-path API.
KernelInfo g_kernel = detect_kernel();

int64_t ceil_div(int64_t a, int64_t b) { return (a + b - 1) / b; }

// ---- packing ---------------------------------------------------------------
// A panels: ap[p * kb * kMR + kk * kMR + i] = A(i0 + p*kMR + i, k0 + kk),
// rows past m padded with zeros. B panels: bp[q * kb * nr + kk * nr + j] =
// B(k0 + kk, j0 + q*nr + j), columns past n padded with zeros.

void pack_a_nn(const float* a, int64_t lda, int64_t i0, int64_t mb, int64_t k0,
               int64_t kb, float* dst) {
  const int64_t panels = ceil_div(mb, kMR);
  for (int64_t p = 0; p < panels; ++p) {
    float* out = dst + p * kb * kMR;
    const int64_t iw = std::min(kMR, mb - p * kMR);
    for (int64_t i = 0; i < iw; ++i) {
      const float* src = a + (i0 + p * kMR + i) * lda + k0;
      for (int64_t kk = 0; kk < kb; ++kk) out[kk * kMR + i] = src[kk];
    }
    for (int64_t i = iw; i < kMR; ++i)
      for (int64_t kk = 0; kk < kb; ++kk) out[kk * kMR + i] = 0.0f;
  }
}

// A stored transposed ([K, M] row-major): panel reads are contiguous in m.
void pack_a_tn(const float* a, int64_t lda /* = m */, int64_t i0, int64_t mb,
               int64_t k0, int64_t kb, float* dst) {
  const int64_t panels = ceil_div(mb, kMR);
  for (int64_t p = 0; p < panels; ++p) {
    float* out = dst + p * kb * kMR;
    const int64_t iw = std::min(kMR, mb - p * kMR);
    for (int64_t kk = 0; kk < kb; ++kk) {
      const float* src = a + (k0 + kk) * lda + i0 + p * kMR;
      float* orow = out + kk * kMR;
      for (int64_t i = 0; i < iw; ++i) orow[i] = src[i];
      for (int64_t i = iw; i < kMR; ++i) orow[i] = 0.0f;
    }
  }
}

void pack_b_nn(const float* b, int64_t ldb /* = n */, int64_t k0, int64_t kb,
               int64_t j0, int64_t nb, int64_t nr, float* dst) {
  const int64_t panels = ceil_div(nb, nr);
  for (int64_t q = 0; q < panels; ++q) {
    float* out = dst + q * kb * nr;
    const int64_t jw = std::min(nr, nb - q * nr);
    for (int64_t kk = 0; kk < kb; ++kk) {
      const float* src = b + (k0 + kk) * ldb + j0 + q * nr;
      float* orow = out + kk * nr;
      for (int64_t j = 0; j < jw; ++j) orow[j] = src[j];
      for (int64_t j = jw; j < nr; ++j) orow[j] = 0.0f;
    }
  }
}

// B stored transposed ([N, K] row-major): gather one source row per column.
void pack_b_nt(const float* b, int64_t ldb /* = k */, int64_t k0, int64_t kb,
               int64_t j0, int64_t nb, int64_t nr, float* dst) {
  const int64_t panels = ceil_div(nb, nr);
  for (int64_t q = 0; q < panels; ++q) {
    float* out = dst + q * kb * nr;
    const int64_t jw = std::min(nr, nb - q * nr);
    for (int64_t j = 0; j < jw; ++j) {
      const float* src = b + (j0 + q * nr + j) * ldb + k0;
      for (int64_t kk = 0; kk < kb; ++kk) out[kk * nr + j] = src[kk];
    }
    for (int64_t j = jw; j < nr; ++j)
      for (int64_t kk = 0; kk < kb; ++kk) out[kk * nr + j] = 0.0f;
  }
}

// ---- epilogue --------------------------------------------------------------

/// Epilogue over rows [i0, i1) of an n-column block of C (leading dim ldc).
void epilogue_rows(int64_t i0, int64_t i1, int64_t n, float* c, int64_t ldc,
                   const GemmEpilogue& ep) {
  for (int64_t i = i0; i < i1; ++i) {
    float* row = c + i * ldc;
    const float rb = ep.row_bias != nullptr ? ep.row_bias[i] : 0.0f;
    if (ep.col_bias != nullptr) {
      for (int64_t j = 0; j < n; ++j) row[j] += rb + ep.col_bias[j];
    } else if (ep.row_bias != nullptr) {
      for (int64_t j = 0; j < n; ++j) row[j] += rb;
    }
    if (ep.relu)
      for (int64_t j = 0; j < n; ++j) row[j] = row[j] > 0.0f ? row[j] : 0.0f;
  }
}

void apply_epilogue(int64_t m, int64_t n, float* c, const GemmEpilogue& ep) {
  if (!ep.active()) return;
  parallel_for(
      m,
      [&](int64_t begin, int64_t end) {
        epilogue_rows(begin, end, n, c, n, ep);
      },
      /*grain=*/std::max<int64_t>(1, 4096 / std::max<int64_t>(1, n)));
}

// ---- macro-kernel over one packed (A block, B block) pair ------------------

void run_block(const KernelInfo& ki, int64_t kb, const float* apbuf,
               int64_t mb, const float* bpbuf, int64_t nb, float* cblock,
               int64_t ldc) {
  const int64_t mpanels = ceil_div(mb, kMR);
  const int64_t npanels = ceil_div(nb, ki.nr);
  float ct[kMR * kMaxNR];
  for (int64_t q = 0; q < npanels; ++q) {
    const float* bp = bpbuf + q * kb * ki.nr;
    const int64_t jw = std::min(ki.nr, nb - q * ki.nr);
    for (int64_t p = 0; p < mpanels; ++p) {
      const float* ap = apbuf + p * kb * kMR;
      const int64_t iw = std::min(kMR, mb - p * kMR);
      float* cdst = cblock + p * kMR * ldc + q * ki.nr;
      if (iw == kMR && jw == ki.nr) {
        ki.fn(kb, ap, bp, cdst, ldc);
      } else {
        // Edge tile: stage the valid part of C in a zero-padded scratch
        // tile so the micro-kernel accumulates onto C exactly as it does
        // for a full tile. No element's result then depends on where tile
        // boundaries fall (column splits, K > kKC).
        std::memset(ct, 0, sizeof(float) * kMR * ki.nr);
        for (int64_t i = 0; i < iw; ++i)
          for (int64_t j = 0; j < jw; ++j)
            ct[i * ki.nr + j] = cdst[i * ldc + j];
        ki.fn(kb, ap, bp, ct, ki.nr);
        for (int64_t i = 0; i < iw; ++i)
          for (int64_t j = 0; j < jw; ++j)
            cdst[i * ldc + j] = ct[i * ki.nr + j];
      }
    }
  }
}

// Shared driver: PackA(dst, i0, mb, k0, kb) packs one A block;
// PackB(scratch, k0, kb, j0, nb, nr) returns the packed B panels for one
// (k, n) block — either by packing into `scratch` or by pointing into
// pre-packed storage. Blocks are visited jc-major then k0, the layout
// pack_gemm_b_nt records.
template <class PackA, class PackB>
void gemm_driver(int64_t m, int64_t n, int64_t k, PackA&& pack_a_fn,
                 PackB&& pack_b_fn, float* c, const GemmEpilogue& ep) {
  if (m <= 0 || n <= 0 || k <= 0) {
    apply_epilogue(m, n, c, ep);
    return;
  }
  const KernelInfo ki = g_kernel;
  thread_local std::vector<float> bpbuf;
  for (int64_t jc = 0; jc < n; jc += kNC) {
    const int64_t nb = std::min(kNC, n - jc);
    for (int64_t k0 = 0; k0 < k; k0 += kKC) {
      const int64_t kb = std::min(kKC, k - k0);
      const float* bp = pack_b_fn(bpbuf, k0, kb, jc, nb, ki.nr);
      const int64_t mblocks = ceil_div(m, kMC);
      const int64_t npanels = ceil_div(nb, ki.nr);
      // 2-D work split. M blocks alone cap parallelism at ceil(m/kMC) — one
      // task for the small-M/large-N shapes the im2col convs produce, with
      // the rest of the pool idle. When blocks are scarcer than threads,
      // each also splits its column panels into nchunks contiguous ranges;
      // every C tile is still written by exactly one run_block call, so the
      // split never changes results. Consecutive work indices share an M
      // block, so a participant claiming a range re-packs A only at block
      // boundaries.
      const int64_t nthreads = ThreadPool::global().size() + 1;
      const int64_t nchunks =
          std::clamp<int64_t>(nthreads / mblocks, 1, npanels);
      parallel_for(
          mblocks * nchunks,
          [&](int64_t w0, int64_t w1) {
            thread_local std::vector<float> apbuf;
            apbuf.resize(static_cast<size_t>((kMC / kMR) * kb * kMR));
            int64_t packed_blk = -1;
            for (int64_t w = w0; w < w1; ++w) {
              const int64_t blk = w / nchunks;
              const int64_t i0 = blk * kMC;
              const int64_t mb = std::min(kMC, m - i0);
              if (blk != packed_blk) {
                pack_a_fn(apbuf.data(), i0, mb, k0, kb);
                packed_blk = blk;
              }
              const int64_t chunk = w % nchunks;
              const int64_t q0 = chunk * npanels / nchunks;
              const int64_t q1 = (chunk + 1) * npanels / nchunks;
              if (q0 == q1) continue;
              run_block(ki, kb, apbuf.data(), mb, bp + q0 * kb * ki.nr,
                        std::min(nb - q0 * ki.nr, (q1 - q0) * ki.nr),
                        c + i0 * n + jc + q0 * ki.nr, n);
            }
          },
          /*grain=*/1);
    }
  }
  apply_epilogue(m, n, c, ep);
}

}  // namespace

// ---- public API ------------------------------------------------------------

namespace {

/// Adapts a pack_b_* call to the driver's provider signature: packs into
/// the driver's scratch buffer and returns it.
template <class Pack>
auto pack_b_into_scratch(Pack&& pack) {
  return [pack](std::vector<float>& scratch, int64_t k0, int64_t kb,
                int64_t j0, int64_t nb, int64_t nr) -> const float* {
    scratch.resize(static_cast<size_t>(ceil_div(nb, nr) * kb * nr));
    pack(scratch.data(), k0, kb, j0, nb, nr);
    return scratch.data();
  };
}

}  // namespace

void gemm_nn_ex(int64_t m, int64_t n, int64_t k, const float* a,
                const float* b, float* c, const GemmEpilogue& ep) {
  gemm_driver(
      m, n, k,
      [&](float* dst, int64_t i0, int64_t mb, int64_t k0, int64_t kb) {
        pack_a_nn(a, k, i0, mb, k0, kb, dst);
      },
      pack_b_into_scratch([&](float* dst, int64_t k0, int64_t kb, int64_t j0,
                              int64_t nb, int64_t nr) {
        pack_b_nn(b, n, k0, kb, j0, nb, nr, dst);
      }),
      c, ep);
}

void gemm_nt_ex(int64_t m, int64_t n, int64_t k, const float* a,
                const float* b, float* c, const GemmEpilogue& ep) {
  gemm_driver(
      m, n, k,
      [&](float* dst, int64_t i0, int64_t mb, int64_t k0, int64_t kb) {
        pack_a_nn(a, k, i0, mb, k0, kb, dst);
      },
      pack_b_into_scratch([&](float* dst, int64_t k0, int64_t kb, int64_t j0,
                              int64_t nb, int64_t nr) {
        pack_b_nt(b, k, k0, kb, j0, nb, nr, dst);
      }),
      c, ep);
}

void gemm_tn_ex(int64_t m, int64_t n, int64_t k, const float* a,
                const float* b, float* c, const GemmEpilogue& ep) {
  gemm_driver(
      m, n, k,
      [&](float* dst, int64_t i0, int64_t mb, int64_t k0, int64_t kb) {
        pack_a_tn(a, m, i0, mb, k0, kb, dst);
      },
      pack_b_into_scratch([&](float* dst, int64_t k0, int64_t kb, int64_t j0,
                              int64_t nb, int64_t nr) {
        pack_b_nn(b, n, k0, kb, j0, nb, nr, dst);
      }),
      c, ep);
}

void gemm_nn(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
             float* c) {
  gemm_nn_ex(m, n, k, a, b, c, {});
}

void gemm_nt(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
             float* c) {
  gemm_nt_ex(m, n, k, a, b, c, {});
}

void gemm_tn(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
             float* c) {
  gemm_tn_ex(m, n, k, a, b, c, {});
}

PackedGemmA pack_gemm_a(int64_t m, int64_t k, const float* a) {
  PackedGemmA packed;
  packed.m = m;
  packed.k = k;
  if (m <= 0 || k <= 0) return packed;
  const int64_t mpanels = ceil_div(m, kMR);
  packed.panels.resize(static_cast<size_t>(mpanels * kMR * k));
  // Per-k-block layout matching the driver: block t holds all m panels for
  // k ∈ [t·kKC, t·kKC + kb); full blocks have stride mpanels·kMR·kKC.
  float* dst = packed.panels.data();
  for (int64_t k0 = 0; k0 < k; k0 += kKC) {
    const int64_t kb = std::min(kKC, k - k0);
    pack_a_nn(a, k, 0, m, k0, kb, dst);
    dst += mpanels * kMR * kb;
  }
  return packed;
}

PackedGemmB pack_gemm_b_nt(int64_t n, int64_t k, const float* b) {
  PackedGemmB packed;
  packed.n = n;
  packed.k = k;
  packed.nr = g_kernel.nr;
  if (n <= 0 || k <= 0) return packed;
  // Blocks stored in the driver's visit order (jc-major, then k0), each
  // ceil(nb/nr) panels of kb·nr floats, so gemm_nt_prepacked walks the
  // buffer with a running offset.
  size_t total = 0;
  for (int64_t jc = 0; jc < n; jc += kNC) {
    const int64_t nb = std::min(kNC, n - jc);
    total += static_cast<size_t>(ceil_div(nb, packed.nr) * packed.nr * k);
  }
  packed.panels.resize(total);
  float* dst = packed.panels.data();
  for (int64_t jc = 0; jc < n; jc += kNC) {
    const int64_t nb = std::min(kNC, n - jc);
    for (int64_t k0 = 0; k0 < k; k0 += kKC) {
      const int64_t kb = std::min(kKC, k - k0);
      pack_b_nt(b, k, k0, kb, jc, nb, packed.nr, dst);
      dst += ceil_div(nb, packed.nr) * kb * packed.nr;
    }
  }
  return packed;
}

void gemm_nt_prepacked(int64_t m, const float* a, const PackedGemmB& b,
                       float* c, const GemmEpilogue& ep) {
  RIPPLE_CHECK(b.nr == g_kernel.nr)
      << "gemm_nt_prepacked: panels packed for nr=" << b.nr
      << " but the dispatched kernel uses nr=" << g_kernel.nr;
  const float* panels = b.panels.data();
  int64_t offset = 0;
  gemm_driver(
      m, b.n, b.k,
      [&](float* dst, int64_t i0, int64_t mb, int64_t k0, int64_t kb) {
        pack_a_nn(a, b.k, i0, mb, k0, kb, dst);
      },
      [&](std::vector<float>&, int64_t /*k0*/, int64_t kb, int64_t /*j0*/,
          int64_t nb, int64_t nr) -> const float* {
        const float* bp = panels + offset;
        offset += ceil_div(nb, nr) * kb * nr;
        return bp;
      },
      c, ep);
}

size_t PackedACache::KeyHash::operator()(const Key& key) const {
  const uint64_t p = reinterpret_cast<uintptr_t>(key.a);
  uint64_t h = p * 0x9e3779b97f4a7c15ull;
  h ^= static_cast<uint64_t>(key.m) * 0xff51afd7ed558ccdull;
  h ^= static_cast<uint64_t>(key.k) * 0xc4ceb9fe1a85ec53ull;
  return static_cast<size_t>(h ^ (h >> 29));
}

const PackedGemmA* PackedACache::find(const float* a, int64_t m,
                                      int64_t k) const {
  const auto it = map_.find(Key{a, m, k});
  return it != map_.end() ? &it->second : nullptr;
}

const PackedGemmA* PackedACache::insert(const float* a, int64_t m, int64_t k,
                                        PackedGemmA packed) {
  RIPPLE_CHECK(!frozen()) << "PackedACache::insert after freeze()";
  return &map_.insert_or_assign(Key{a, m, k}, std::move(packed))
              .first->second;
}

const PackedGemmB* PackedACache::find_b(const float* b, int64_t n,
                                        int64_t k) const {
  const auto it = bmap_.find(Key{b, n, k});
  return it != bmap_.end() ? &it->second : nullptr;
}

const PackedGemmB* PackedACache::insert_b(const float* b, int64_t n, int64_t k,
                                          PackedGemmB packed) {
  RIPPLE_CHECK(!frozen()) << "PackedACache::insert_b after freeze()";
  return &bmap_.insert_or_assign(Key{b, n, k}, std::move(packed))
              .first->second;
}

void PackedACache::freeze() { frozen_.store(true, std::memory_order_release); }

bool PackedACache::frozen() const {
  return frozen_.load(std::memory_order_acquire);
}

void PackedACache::clear() {
  map_.clear();
  bmap_.clear();
  frozen_.store(false, std::memory_order_release);
}

size_t PackedACache::size() const { return map_.size() + bmap_.size(); }

namespace {
thread_local PackedACache* tl_pack_cache = nullptr;
}  // namespace

PackedACache* active_pack_cache() { return tl_pack_cache; }

PackCacheScope::PackCacheScope(PackedACache* cache)
    : previous_(tl_pack_cache) {
  tl_pack_cache = cache;
}

PackCacheScope::~PackCacheScope() { tl_pack_cache = previous_; }

const PackedGemmA& pack_gemm_a_cached(int64_t m, int64_t k, const float* a,
                                      PackedGemmA& local) {
  if (PackedACache* cache = tl_pack_cache; cache != nullptr) {
    if (const PackedGemmA* hit = cache->find(a, m, k)) return *hit;
    if (!cache->frozen())
      return *cache->insert(a, m, k, pack_gemm_a(m, k, a));
  }
  local = pack_gemm_a(m, k, a);
  return local;
}

const PackedGemmB& pack_gemm_b_nt_cached(int64_t n, int64_t k, const float* b,
                                         PackedGemmB& local) {
  if (PackedACache* cache = tl_pack_cache; cache != nullptr) {
    if (const PackedGemmB* hit = cache->find_b(b, n, k);
        hit != nullptr && hit->nr == g_kernel.nr)
      return *hit;
    if (!cache->frozen())
      return *cache->insert_b(b, n, k, pack_gemm_b_nt(n, k, b));
  }
  local = pack_gemm_b_nt(n, k, b);
  return local;
}

int64_t gemm_nn_prepacked_scratch(int64_t n, int64_t k) {
  // ceil(nb / nr) · nr < nb + kMaxNR for every kernel width nr.
  return (std::min(n, kNC) + kMaxNR) * std::min(k, kKC);
}

void gemm_nn_prepacked(const PackedGemmA& a, int64_t n, const float* b,
                       int64_t ldb, float* c, int64_t ldc,
                       const GemmEpilogue& ep, float* scratch) {
  const int64_t m = a.m;
  const int64_t k = a.k;
  if (m <= 0 || n <= 0) return;
  const KernelInfo ki = g_kernel;
  for (int64_t jc = 0; jc < n && k > 0; jc += kNC) {
    const int64_t nb = std::min(kNC, n - jc);
    // Packed A holds all row panels per k block (see pack_gemm_a).
    const float* apblock = a.panels.data();
    for (int64_t k0 = 0; k0 < k; k0 += kKC) {
      const int64_t kb = std::min(kKC, k - k0);
      pack_b_nn(b, ldb, k0, kb, jc, nb, ki.nr, scratch);
      run_block(ki, kb, apblock, m, scratch, nb, c + jc, ldc);
      apblock += ceil_div(m, kMR) * kMR * kb;
    }
  }
  if (ep.active()) epilogue_rows(0, m, n, c, ldc, ep);
}

void set_gemm_backend(GemmBackend backend) {
  switch (backend) {
    case GemmBackend::kAuto:
      g_kernel = detect_kernel();
      break;
    case GemmBackend::kScalar:
      g_kernel = kScalarKernel;
      break;
    case GemmBackend::kSimd:
      g_kernel = best_simd_kernel();
      break;
  }
}

const char* gemm_backend_name() { return g_kernel.name; }

// ---- reference kernels (pre-optimization implementations) ------------------

namespace {
constexpr int64_t kRefBlockM = 64;
constexpr int64_t kRefBlockK = 256;
}  // namespace

void gemm_ref_nn(int64_t m, int64_t n, int64_t k, const float* a,
                 const float* b, float* c) {
  for (int64_t i0 = 0; i0 < m; i0 += kRefBlockM) {
    const int64_t i1 = std::min(m, i0 + kRefBlockM);
    for (int64_t k0 = 0; k0 < k; k0 += kRefBlockK) {
      const int64_t k1 = std::min(k, k0 + kRefBlockK);
      for (int64_t i = i0; i < i1; ++i) {
        const float* arow = a + i * k;
        float* crow = c + i * n;
        for (int64_t kk = k0; kk < k1; ++kk) {
          const float av = arow[kk];
          if (av == 0.0f) continue;
          const float* brow = b + kk * n;
          for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
      }
    }
  }
}

void gemm_ref_nt(int64_t m, int64_t n, int64_t k, const float* a,
                 const float* b, float* c) {
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      crow[j] += acc;
    }
  }
}

void gemm_ref_tn(int64_t m, int64_t n, int64_t k, const float* a,
                 const float* b, float* c) {
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* arow = a + kk * m;
    const float* brow = b + kk * n;
    for (int64_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c + i * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  RIPPLE_CHECK(a.rank() == 2 && b.rank() == 2)
      << "matmul needs 2-d operands, got " << shape_to_string(a.shape())
      << " and " << shape_to_string(b.shape());
  RIPPLE_CHECK(a.dim(1) == b.dim(0))
      << "matmul inner dims differ: " << shape_to_string(a.shape()) << " · "
      << shape_to_string(b.shape());
  Tensor c({a.dim(0), b.dim(1)});
  gemm_nn(a.dim(0), b.dim(1), a.dim(1), a.data(), b.data(), c.data());
  return c;
}

}  // namespace ripple
