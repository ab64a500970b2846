// Hand-vectorised AVX-512F micro-kernels.
//
//   fp32: 14x32 — per row two 16-lane accumulators, 28 zmm accumulators
//   fp64: 14x16 — per row two  8-lane accumulators, 28 zmm accumulators
//
// AVX-512 doubles the architectural register file to 32 zmm, so the tile
// grows from AVX2's 6 rows to 14: 28 accumulators + 2 B loads + 1 A
// broadcast = 31 live registers, leaving one spare. The taller tile raises
// the FLOP : B-load ratio from 6 to 14 FMAs per B element, which is what
// pushes the kernel past the bandwidth ceiling the 6-row AVX2 shape sits
// under. The kc loop is unrolled x4 with a software prefetch into the packed
// A panel each unrolled block, mirroring the AVX2 tier. The kernels are
// compiled with per-function target attributes rather than per-file
// -mavx512f so this TU still builds (and the rest of the library stays
// portable) under the default x86-64 baseline; the dispatcher only hands
// these pointers out after a CPUID probe confirms AVX-512F.
#include "blas/kernels/kernel_set.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace adsala::blas::kernels::detail {

namespace {

inline constexpr int kMrF32 = 14;
inline constexpr int kNrF32 = 32;
inline constexpr int kMrF64 = 14;
inline constexpr int kNrF64 = 16;

/// Software-prefetch lookahead into the packed A panel, in k iterations.
/// The panel is read strictly sequentially (MR elements per iteration); a
/// fixed distance of ~8 iterations (448 B fp32 / 896 B fp64 ahead) keeps the
/// loads inside the L1 stream. Shorter than the AVX2 tier's 16 because the
/// 14-row panel advances 2.3x as many bytes per iteration.
inline constexpr int kAPrefetchIters = 8;

__attribute__((target("avx512f"), always_inline)) inline void f32_step(
    const float* a, const float* b, __m512 acc[kMrF32][2]) {
  const __m512 b0 = _mm512_loadu_ps(b);
  const __m512 b1 = _mm512_loadu_ps(b + 16);
  for (int i = 0; i < kMrF32; ++i) {
    const __m512 ai = _mm512_set1_ps(a[i]);
    acc[i][0] = _mm512_fmadd_ps(ai, b0, acc[i][0]);
    acc[i][1] = _mm512_fmadd_ps(ai, b1, acc[i][1]);
  }
}

__attribute__((target("avx512f"))) void sgemm_14x32_accumulate(
    int kc, const float* a, const float* b, __m512 acc[kMrF32][2]) {
  for (int i = 0; i < kMrF32; ++i) {
    acc[i][0] = _mm512_setzero_ps();
    acc[i][1] = _mm512_setzero_ps();
  }
  // x4 unrolled main loop: the four independent FMA groups per row give the
  // scheduler room to hide the 4-cycle FMA latency across 28 live
  // accumulators.
  int p = 0;
  for (; p + 4 <= kc; p += 4) {
    // The A pointer advances 4 * MR floats (224 B) per block: four 64-byte
    // prefetches per block cover every panel line ahead. B advances 4 * NR
    // floats (512 B = 8 lines) per block; unlike the 6-row AVX2 tile, the
    // 14-row tile leaves load-port slack (16 load uops vs 28 FMAs per step),
    // so prefetching the B stream too is free and hides the L2 latency of a
    // 32 KB B panel's first pass.
    const char* a_ahead =
        reinterpret_cast<const char*>(a + kAPrefetchIters * kMrF32);
    _mm_prefetch(a_ahead, _MM_HINT_T0);
    _mm_prefetch(a_ahead + 64, _MM_HINT_T0);
    _mm_prefetch(a_ahead + 128, _MM_HINT_T0);
    _mm_prefetch(a_ahead + 192, _MM_HINT_T0);
    const char* b_ahead =
        reinterpret_cast<const char*>(b + kAPrefetchIters * kNrF32);
    _mm_prefetch(b_ahead, _MM_HINT_T0);
    _mm_prefetch(b_ahead + 64, _MM_HINT_T0);
    _mm_prefetch(b_ahead + 128, _MM_HINT_T0);
    _mm_prefetch(b_ahead + 192, _MM_HINT_T0);
    _mm_prefetch(b_ahead + 256, _MM_HINT_T0);
    _mm_prefetch(b_ahead + 320, _MM_HINT_T0);
    _mm_prefetch(b_ahead + 384, _MM_HINT_T0);
    _mm_prefetch(b_ahead + 448, _MM_HINT_T0);
    f32_step(a, b, acc);
    f32_step(a + kMrF32, b + kNrF32, acc);
    f32_step(a + 2 * kMrF32, b + 2 * kNrF32, acc);
    f32_step(a + 3 * kMrF32, b + 3 * kNrF32, acc);
    a += 4 * kMrF32;
    b += 4 * kNrF32;
  }
  for (; p < kc; ++p) {
    f32_step(a, b, acc);
    a += kMrF32;
    b += kNrF32;
  }
}

__attribute__((target("avx512f"))) void sgemm_14x32_full(int kc, float alpha,
                                                         const float* a,
                                                         const float* b,
                                                         float* c, int ldc) {
  __m512 acc[kMrF32][2];
  sgemm_14x32_accumulate(kc, a, b, acc);
  const __m512 va = _mm512_set1_ps(alpha);
  for (int i = 0; i < kMrF32; ++i) {
    float* crow = c + i * static_cast<long>(ldc);
    _mm512_storeu_ps(crow,
                     _mm512_fmadd_ps(va, acc[i][0], _mm512_loadu_ps(crow)));
    _mm512_storeu_ps(
        crow + 16, _mm512_fmadd_ps(va, acc[i][1], _mm512_loadu_ps(crow + 16)));
  }
}

__attribute__((target("avx512f"))) void sgemm_14x32_edge(int kc, float alpha,
                                                         const float* a,
                                                         const float* b,
                                                         float* c, int ldc,
                                                         int rows, int cols) {
  __m512 acc[kMrF32][2];
  sgemm_14x32_accumulate(kc, a, b, acc);
  alignas(64) float tile[kMrF32][kNrF32];
  for (int i = 0; i < kMrF32; ++i) {
    _mm512_store_ps(tile[i], acc[i][0]);
    _mm512_store_ps(tile[i] + 16, acc[i][1]);
  }
  for (int i = 0; i < rows; ++i) {
    float* crow = c + i * static_cast<long>(ldc);
    for (int j = 0; j < cols; ++j) crow[j] += alpha * tile[i][j];
  }
}

__attribute__((target("avx512f"), always_inline)) inline void f64_step(
    const double* a, const double* b, __m512d acc[kMrF64][2]) {
  const __m512d b0 = _mm512_loadu_pd(b);
  const __m512d b1 = _mm512_loadu_pd(b + 8);
  for (int i = 0; i < kMrF64; ++i) {
    const __m512d ai = _mm512_set1_pd(a[i]);
    acc[i][0] = _mm512_fmadd_pd(ai, b0, acc[i][0]);
    acc[i][1] = _mm512_fmadd_pd(ai, b1, acc[i][1]);
  }
}

__attribute__((target("avx512f"))) void dgemm_14x16_accumulate(
    int kc, const double* a, const double* b, __m512d acc[kMrF64][2]) {
  for (int i = 0; i < kMrF64; ++i) {
    acc[i][0] = _mm512_setzero_pd();
    acc[i][1] = _mm512_setzero_pd();
  }
  // x4 unrolled main loop with A- and B-stream prefetch, mirroring the fp32
  // kernel: the load-port slack argument is identical (16 load uops vs 28
  // FMAs per step) and the fp64 B panel is twice the bytes.
  int p = 0;
  for (; p + 4 <= kc; p += 4) {
    // The A pointer advances 4 * MR doubles (448 B) per block: seven 64-byte
    // prefetches per block cover every panel line ahead. B advances 4 * NR
    // doubles (512 B = 8 lines) per block.
    const char* a_ahead =
        reinterpret_cast<const char*>(a + kAPrefetchIters * kMrF64);
    _mm_prefetch(a_ahead, _MM_HINT_T0);
    _mm_prefetch(a_ahead + 64, _MM_HINT_T0);
    _mm_prefetch(a_ahead + 128, _MM_HINT_T0);
    _mm_prefetch(a_ahead + 192, _MM_HINT_T0);
    _mm_prefetch(a_ahead + 256, _MM_HINT_T0);
    _mm_prefetch(a_ahead + 320, _MM_HINT_T0);
    _mm_prefetch(a_ahead + 384, _MM_HINT_T0);
    const char* b_ahead =
        reinterpret_cast<const char*>(b + kAPrefetchIters * kNrF64);
    _mm_prefetch(b_ahead, _MM_HINT_T0);
    _mm_prefetch(b_ahead + 64, _MM_HINT_T0);
    _mm_prefetch(b_ahead + 128, _MM_HINT_T0);
    _mm_prefetch(b_ahead + 192, _MM_HINT_T0);
    _mm_prefetch(b_ahead + 256, _MM_HINT_T0);
    _mm_prefetch(b_ahead + 320, _MM_HINT_T0);
    _mm_prefetch(b_ahead + 384, _MM_HINT_T0);
    _mm_prefetch(b_ahead + 448, _MM_HINT_T0);
    f64_step(a, b, acc);
    f64_step(a + kMrF64, b + kNrF64, acc);
    f64_step(a + 2 * kMrF64, b + 2 * kNrF64, acc);
    f64_step(a + 3 * kMrF64, b + 3 * kNrF64, acc);
    a += 4 * kMrF64;
    b += 4 * kNrF64;
  }
  for (; p < kc; ++p) {
    f64_step(a, b, acc);
    a += kMrF64;
    b += kNrF64;
  }
}

__attribute__((target("avx512f"))) void dgemm_14x16_full(int kc, double alpha,
                                                         const double* a,
                                                         const double* b,
                                                         double* c, int ldc) {
  __m512d acc[kMrF64][2];
  dgemm_14x16_accumulate(kc, a, b, acc);
  const __m512d va = _mm512_set1_pd(alpha);
  for (int i = 0; i < kMrF64; ++i) {
    double* crow = c + i * static_cast<long>(ldc);
    _mm512_storeu_pd(crow,
                     _mm512_fmadd_pd(va, acc[i][0], _mm512_loadu_pd(crow)));
    _mm512_storeu_pd(
        crow + 8, _mm512_fmadd_pd(va, acc[i][1], _mm512_loadu_pd(crow + 8)));
  }
}

__attribute__((target("avx512f"))) void dgemm_14x16_edge(int kc, double alpha,
                                                         const double* a,
                                                         const double* b,
                                                         double* c, int ldc,
                                                         int rows, int cols) {
  __m512d acc[kMrF64][2];
  dgemm_14x16_accumulate(kc, a, b, acc);
  alignas(64) double tile[kMrF64][kNrF64];
  for (int i = 0; i < kMrF64; ++i) {
    _mm512_store_pd(tile[i], acc[i][0]);
    _mm512_store_pd(tile[i] + 8, acc[i][1]);
  }
  for (int i = 0; i < rows; ++i) {
    double* crow = c + i * static_cast<long>(ldc);
    for (int j = 0; j < cols; ++j) crow[j] += alpha * tile[i][j];
  }
}

}  // namespace

KernelSet<float> avx512_kernel_set_f32() {
  KernelSet<float> set;
  set.mr = kMrF32;
  set.nr = kNrF32;
  // The 14-row tile wants taller MC (16 micro-panels) and a deeper KC than
  // the 6-row tiers: its per-C-tile write-back is 3.5 KB, so a kc=512 panel
  // halves the write-back rate for the same packed traffic (measured best
  // in the dev-host blocking sweep at 1024^3, fp32 and fp64 alike).
  set.mc = 224;
  set.kc = 512;
  set.nc = 2048;
  set.name = "avx512";
  set.full = &sgemm_14x32_full;
  set.edge = &sgemm_14x32_edge;
  set.trsm_solve = &avx512_trsm_solve<float>;
  return set;
}

KernelSet<double> avx512_kernel_set_f64() {
  KernelSet<double> set;
  set.mr = kMrF64;
  set.nr = kNrF64;
  set.mc = 224;
  set.kc = 512;
  set.nc = 2048;
  set.name = "avx512";
  set.full = &dgemm_14x16_full;
  set.edge = &dgemm_14x16_edge;
  set.trsm_solve = &avx512_trsm_solve<double>;
  return set;
}

}  // namespace adsala::blas::kernels::detail

#else  // non-x86: the dispatcher never selects kAvx512, but the symbols must
       // exist. Return empty sets; dispatch.cpp treats them as unavailable.

namespace adsala::blas::kernels::detail {
KernelSet<float> avx512_kernel_set_f32() { return {}; }
KernelSet<double> avx512_kernel_set_f64() { return {}; }
}  // namespace adsala::blas::kernels::detail

#endif
