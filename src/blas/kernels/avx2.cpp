// Hand-vectorised AVX2+FMA micro-kernels.
//
//   fp32: 6x16 — per row two 8-lane accumulators, 12 ymm accumulators total
//   fp64: 6x8  — per row two 4-lane accumulators, 12 ymm accumulators total
//
// Both shapes leave ymm registers free for the two B loads and the broadcast
// of A, so with the fixed trip counts below GCC keeps every accumulator
// resident in registers for the whole kc loop. The kc loop is unrolled x4
// with a software prefetch into the packed A panel each unrolled block
// (ROADMAP item: k-loop unrolling + A-panel prefetch inside the AVX2
// kernels). The kernels are compiled with
// per-function target attributes rather than per-file -mavx2 so this TU still
// builds (and the rest of the library stays portable) under the default
// x86-64 baseline; the dispatcher only hands these pointers out after a
// CPUID probe confirms AVX2+FMA.
#include "blas/kernels/kernel_set.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace adsala::blas::kernels::detail {

namespace {

inline constexpr int kMrF32 = 6;
inline constexpr int kNrF32 = 16;
inline constexpr int kMrF64 = 6;
inline constexpr int kNrF64 = 8;

/// Software-prefetch lookahead into the packed A panel, in k iterations.
/// The panel is read strictly sequentially (MR elements per iteration), so a
/// fixed distance of ~16 iterations (384 B fp32 / 768 B fp64 ahead) keeps the
/// loads inside the L1 stream without competing with the B loads for fill
/// buffers.
inline constexpr int kAPrefetchIters = 16;

__attribute__((target("avx2,fma"), always_inline)) inline void f32_step(
    const float* a, const float* b, __m256 acc[kMrF32][2]) {
  const __m256 b0 = _mm256_loadu_ps(b);
  const __m256 b1 = _mm256_loadu_ps(b + 8);
  for (int i = 0; i < kMrF32; ++i) {
    const __m256 ai = _mm256_broadcast_ss(a + i);
    acc[i][0] = _mm256_fmadd_ps(ai, b0, acc[i][0]);
    acc[i][1] = _mm256_fmadd_ps(ai, b1, acc[i][1]);
  }
}

__attribute__((target("avx2,fma"))) void sgemm_6x16_accumulate(
    int kc, const float* a, const float* b, __m256 acc[kMrF32][2]) {
  for (int i = 0; i < kMrF32; ++i) {
    acc[i][0] = _mm256_setzero_ps();
    acc[i][1] = _mm256_setzero_ps();
  }
  // x4 unrolled main loop: fewer loop-carried branches, and the four
  // independent FMA groups per row give the scheduler room to hide the
  // 4-5 cycle FMA latency across 12 live accumulators.
  int p = 0;
  for (; p + 4 <= kc; p += 4) {
    // The pointer advances 4 * MR floats (96 B) per block: two 64-byte
    // prefetches per block cover every panel line ahead.
    const char* ahead =
        reinterpret_cast<const char*>(a + kAPrefetchIters * kMrF32);
    _mm_prefetch(ahead, _MM_HINT_T0);
    _mm_prefetch(ahead + 64, _MM_HINT_T0);
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

__attribute__((target("avx2,fma"))) void sgemm_6x16_full(int kc, float alpha,
                                                         const float* a,
                                                         const float* b,
                                                         float* c, int ldc) {
  __m256 acc[kMrF32][2];
  sgemm_6x16_accumulate(kc, a, b, acc);
  const __m256 va = _mm256_set1_ps(alpha);
  for (int i = 0; i < kMrF32; ++i) {
    float* crow = c + i * static_cast<long>(ldc);
    _mm256_storeu_ps(crow,
                     _mm256_fmadd_ps(va, acc[i][0], _mm256_loadu_ps(crow)));
    _mm256_storeu_ps(
        crow + 8, _mm256_fmadd_ps(va, acc[i][1], _mm256_loadu_ps(crow + 8)));
  }
}

__attribute__((target("avx2,fma"))) void sgemm_6x16_edge(int kc, float alpha,
                                                         const float* a,
                                                         const float* b,
                                                         float* c, int ldc,
                                                         int rows, int cols) {
  __m256 acc[kMrF32][2];
  sgemm_6x16_accumulate(kc, a, b, acc);
  alignas(32) float tile[kMrF32][kNrF32];
  for (int i = 0; i < kMrF32; ++i) {
    _mm256_store_ps(tile[i], acc[i][0]);
    _mm256_store_ps(tile[i] + 8, acc[i][1]);
  }
  for (int i = 0; i < rows; ++i) {
    float* crow = c + i * static_cast<long>(ldc);
    for (int j = 0; j < cols; ++j) crow[j] += alpha * tile[i][j];
  }
}

__attribute__((target("avx2,fma"), always_inline)) inline void f64_step(
    const double* a, const double* b, __m256d acc[kMrF64][2]) {
  const __m256d b0 = _mm256_loadu_pd(b);
  const __m256d b1 = _mm256_loadu_pd(b + 4);
  for (int i = 0; i < kMrF64; ++i) {
    const __m256d ai = _mm256_broadcast_sd(a + i);
    acc[i][0] = _mm256_fmadd_pd(ai, b0, acc[i][0]);
    acc[i][1] = _mm256_fmadd_pd(ai, b1, acc[i][1]);
  }
}

__attribute__((target("avx2,fma"))) void dgemm_6x8_accumulate(
    int kc, const double* a, const double* b, __m256d acc[kMrF64][2]) {
  for (int i = 0; i < kMrF64; ++i) {
    acc[i][0] = _mm256_setzero_pd();
    acc[i][1] = _mm256_setzero_pd();
  }
  // x4 unrolled main loop with A-panel prefetch (see kAPrefetchIters).
  int p = 0;
  for (; p + 4 <= kc; p += 4) {
    // The pointer advances 4 * MR doubles (192 B) per block: three 64-byte
    // prefetches per block cover every panel line ahead.
    const char* ahead =
        reinterpret_cast<const char*>(a + kAPrefetchIters * kMrF64);
    _mm_prefetch(ahead, _MM_HINT_T0);
    _mm_prefetch(ahead + 64, _MM_HINT_T0);
    _mm_prefetch(ahead + 128, _MM_HINT_T0);
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

__attribute__((target("avx2,fma"))) void dgemm_6x8_full(int kc, double alpha,
                                                        const double* a,
                                                        const double* b,
                                                        double* c, int ldc) {
  __m256d acc[kMrF64][2];
  dgemm_6x8_accumulate(kc, a, b, acc);
  const __m256d va = _mm256_set1_pd(alpha);
  for (int i = 0; i < kMrF64; ++i) {
    double* crow = c + i * static_cast<long>(ldc);
    _mm256_storeu_pd(crow,
                     _mm256_fmadd_pd(va, acc[i][0], _mm256_loadu_pd(crow)));
    _mm256_storeu_pd(
        crow + 4, _mm256_fmadd_pd(va, acc[i][1], _mm256_loadu_pd(crow + 4)));
  }
}

__attribute__((target("avx2,fma"))) void dgemm_6x8_edge(int kc, double alpha,
                                                        const double* a,
                                                        const double* b,
                                                        double* c, int ldc,
                                                        int rows, int cols) {
  __m256d acc[kMrF64][2];
  dgemm_6x8_accumulate(kc, a, b, acc);
  alignas(32) double tile[kMrF64][kNrF64];
  for (int i = 0; i < kMrF64; ++i) {
    _mm256_store_pd(tile[i], acc[i][0]);
    _mm256_store_pd(tile[i] + 4, acc[i][1]);
  }
  for (int i = 0; i < rows; ++i) {
    double* crow = c + i * static_cast<long>(ldc);
    for (int j = 0; j < cols; ++j) crow[j] += alpha * tile[i][j];
  }
}

}  // namespace

KernelSet<float> avx2_kernel_set_f32() {
  KernelSet<float> set;
  set.mr = kMrF32;
  set.nr = kNrF32;
  // Measured best on the dev host's blocking sweep (1024^3): a deeper KC
  // than the historical 256 amortises the 6x16 tile's write-back further.
  set.mc = 180;
  set.kc = 384;
  set.nc = 2048;
  set.name = "avx2";
  set.full = &sgemm_6x16_full;
  set.edge = &sgemm_6x16_edge;
  set.trsm_solve = &avx2_trsm_solve<float>;
  return set;
}

KernelSet<double> avx2_kernel_set_f64() {
  KernelSet<double> set;
  set.mr = kMrF64;
  set.nr = kNrF64;
  set.mc = 120;
  set.kc = 256;
  set.nc = 2048;
  set.name = "avx2";
  set.full = &dgemm_6x8_full;
  set.edge = &dgemm_6x8_edge;
  set.trsm_solve = &avx2_trsm_solve<double>;
  return set;
}

}  // namespace adsala::blas::kernels::detail

#else  // non-x86: the dispatcher never selects kAvx2, but the symbols must
       // exist. Return empty sets; dispatch.cpp treats them as unavailable.

namespace adsala::blas::kernels::detail {
KernelSet<float> avx2_kernel_set_f32() { return {}; }
KernelSet<double> avx2_kernel_set_f64() { return {}; }
}  // namespace adsala::blas::kernels::detail

#endif
