// Hand-vectorised AVX2+FMA micro-kernels.
//
//   fp32: 6x16 — per row two 8-lane accumulators, 12 ymm accumulators total
//   fp64: 6x8  — per row two 4-lane accumulators, 12 ymm accumulators total
//
// Both shapes leave ymm registers free for the two B loads and the broadcast
// of A (12 + 2 + 1 = 15 of 16). The kc loop is unrolled x4 with a software
// prefetch into the packed A panel each unrolled block. The kernels are
// compiled with per-function target attributes rather than per-file -mavx2
// so this TU still builds (and the rest of the library stays portable)
// under the default x86-64 baseline; the dispatcher only hands these
// pointers out after a CPUID probe confirms AVX2+FMA.
//
// The accumulator block must never leave the kernel function. It is a local
// array that only always_inline helpers touch, with every index a
// compile-time constant, so GCC keeps all 12 accumulators in ymm registers
// for the whole kc loop. Passing it to an out-of-line helper (or taking its
// address any other way) makes the compiler store every accumulator back to
// memory after every FMA. To check a build, disassemble the kc loop:
//
//   objdump -d --no-show-raw-insn -C
//       build/CMakeFiles/adsala.dir/src/blas/kernels/avx2.cpp.o
//
// Between the first prefetcht0 and the loop's backward jump there must be
// no vmovaps/vmovups to or from memory and no %rsp-relative operand: only
// vmovups loads of B, vbroadcastss/sd loads of A, and vfmadd231ps/pd.
//
// Rounding: every C element takes exactly the sequence of the FMA-order
// model in tests/test_blas.cpp — acc = 0, one fused multiply-add per k
// ascending, then one fused alpha * acc + c — in full tiles and fringes
// alike (the fringe write-back is masked, not a separate scalar path).
#include "blas/kernels/kernel_set.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace adsala::blas::kernels::detail {

namespace {

#define ADSALA_AVX2 \
  __attribute__((target("avx2,fma"), always_inline)) inline

/// One ymm register's worth of T: the handful of intrinsics the kernel
/// template below needs, so fp32 and fp64 share one kernel body. Masks are
/// vmaskmov lane masks (sign bit set = lane active).
template <typename T>
struct Ymm;

template <>
struct Ymm<float> {
  using Vec = __m256;
  static constexpr int kLanes = 8;
  ADSALA_AVX2 static Vec zero() { return _mm256_setzero_ps(); }
  ADSALA_AVX2 static Vec load(const float* p) { return _mm256_loadu_ps(p); }
  ADSALA_AVX2 static Vec splat(const float* p) {
    return _mm256_broadcast_ss(p);
  }
  ADSALA_AVX2 static Vec fma(Vec a, Vec b, Vec c) {
    return _mm256_fmadd_ps(a, b, c);
  }
  ADSALA_AVX2 static void store(float* p, Vec v) { _mm256_storeu_ps(p, v); }
  ADSALA_AVX2 static __m256i first_lanes(int n) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(n),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  ADSALA_AVX2 static Vec load(__m256i m, const float* p) {
    return _mm256_maskload_ps(p, m);
  }
  ADSALA_AVX2 static void store(__m256i m, float* p, Vec v) {
    _mm256_maskstore_ps(p, m, v);
  }
};

template <>
struct Ymm<double> {
  using Vec = __m256d;
  static constexpr int kLanes = 4;
  ADSALA_AVX2 static Vec zero() { return _mm256_setzero_pd(); }
  ADSALA_AVX2 static Vec load(const double* p) { return _mm256_loadu_pd(p); }
  ADSALA_AVX2 static Vec splat(const double* p) {
    return _mm256_broadcast_sd(p);
  }
  ADSALA_AVX2 static Vec fma(Vec a, Vec b, Vec c) {
    return _mm256_fmadd_pd(a, b, c);
  }
  ADSALA_AVX2 static void store(double* p, Vec v) { _mm256_storeu_pd(p, v); }
  ADSALA_AVX2 static __m256i first_lanes(int n) {
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(n),
                              _mm256_setr_epi64x(0, 1, 2, 3));
  }
  ADSALA_AVX2 static Vec load(__m256i m, const double* p) {
    return _mm256_maskload_pd(p, m);
  }
  ADSALA_AVX2 static void store(__m256i m, double* p, Vec v) {
    _mm256_maskstore_pd(p, m, v);
  }
};

/// Both precisions use a 6-row tile two ymm registers wide.
inline constexpr int kMr = 6;
inline constexpr int kVecsPerRow = 2;

/// Software-prefetch lookahead into the packed A panel, in k iterations.
/// The panel is read strictly sequentially (MR elements per iteration), so a
/// fixed distance of ~16 iterations (384 B fp32 / 768 B fp64 ahead) keeps the
/// loads inside the L1 stream without competing with the B loads for fill
/// buffers.
inline constexpr int kAPrefetchIters = 16;

template <typename T>
using Acc = typename Ymm<T>::Vec[kMr][kVecsPerRow];

/// acc[i][h] += a[i] * b[h * lanes .. +lanes) for one k step.
template <typename T>
ADSALA_AVX2 void step(const T* a, const T* b, Acc<T>& acc) {
  using V = Ymm<T>;
  const typename V::Vec b0 = V::load(b);
  const typename V::Vec b1 = V::load(b + V::kLanes);
#pragma GCC unroll 6
  for (int i = 0; i < kMr; ++i) {
    const typename V::Vec ai = V::splat(a + i);
    acc[i][0] = V::fma(ai, b0, acc[i][0]);
    acc[i][1] = V::fma(ai, b1, acc[i][1]);
  }
}

/// The kc loop: acc = A panel * B panel, starting from zero.
template <typename T>
ADSALA_AVX2 void accumulate(int kc, const T* a, const T* b, Acc<T>& acc) {
  constexpr int kNr = kVecsPerRow * Ymm<T>::kLanes;
  // The A pointer advances 4 * MR elements (96 B fp32 / 192 B fp64) per
  // unrolled block: one 64-byte prefetch per line covers the panel ahead.
  constexpr int kABlockBytes = 4 * kMr * static_cast<int>(sizeof(T));
#pragma GCC unroll 6
  for (int i = 0; i < kMr; ++i) {
    acc[i][0] = Ymm<T>::zero();
    acc[i][1] = Ymm<T>::zero();
  }
  // x4 unrolled main loop: fewer loop-carried branches, and the four
  // independent FMA groups per row give the scheduler room to hide the
  // 4-5 cycle FMA latency across 12 live accumulators.
  int p = 0;
  for (; p + 4 <= kc; p += 4) {
    const char* ahead =
        reinterpret_cast<const char*>(a + kAPrefetchIters * kMr);
#pragma GCC unroll 3
    for (int off = 0; off < kABlockBytes; off += 64) {
      _mm_prefetch(ahead + off, _MM_HINT_T0);
    }
    step<T>(a, b, acc);
    step<T>(a + kMr, b + kNr, acc);
    step<T>(a + 2 * kMr, b + 2 * kNr, acc);
    step<T>(a + 3 * kMr, b + 3 * kNr, acc);
    a += 4 * kMr;
    b += 4 * kNr;
  }
  for (; p < kc; ++p) {
    step<T>(a, b, acc);
    a += kMr;
    b += kNr;
  }
}

template <typename T>
__attribute__((target("avx2,fma"))) void gemm_full(int kc, T alpha,
                                                   const T* a, const T* b,
                                                   T* c, int ldc) {
  using V = Ymm<T>;
  Acc<T> acc;
  accumulate<T>(kc, a, b, acc);
  const typename V::Vec va = V::splat(&alpha);
#pragma GCC unroll 6
  for (int i = 0; i < kMr; ++i) {
    T* crow = c + i * static_cast<long>(ldc);
    V::store(crow, V::fma(va, acc[i][0], V::load(crow)));
    V::store(crow + V::kLanes,
             V::fma(va, acc[i][1], V::load(crow + V::kLanes)));
  }
}

/// Fringe tile: the same register block and the same fused write-back as
/// gemm_full, masked to rows x cols. The row guard is a constant-index
/// test per unrolled row, so the accumulators stay in registers.
template <typename T>
__attribute__((target("avx2,fma"))) void gemm_edge(int kc, T alpha,
                                                   const T* a, const T* b,
                                                   T* c, int ldc, int rows,
                                                   int cols) {
  using V = Ymm<T>;
  Acc<T> acc;
  accumulate<T>(kc, a, b, acc);
  const typename V::Vec va = V::splat(&alpha);
  const __m256i m0 = V::first_lanes(cols);
  const __m256i m1 = V::first_lanes(cols - V::kLanes);
#pragma GCC unroll 6
  for (int i = 0; i < kMr; ++i) {
    if (i < rows) {
      T* crow = c + i * static_cast<long>(ldc);
      V::store(m0, crow, V::fma(va, acc[i][0], V::load(m0, crow)));
      V::store(m1, crow + V::kLanes,
               V::fma(va, acc[i][1], V::load(m1, crow + V::kLanes)));
    }
  }
}

#undef ADSALA_AVX2

}  // namespace

KernelSet<float> avx2_kernel_set_f32() {
  KernelSet<float> set;
  set.mr = kMr;
  set.nr = kVecsPerRow * Ymm<float>::kLanes;
  // Measured best on the dev host's blocking sweep (1024^3): a deeper KC
  // than the historical 256 amortises the 6x16 tile's write-back further.
  set.mc = 180;
  set.kc = 384;
  set.nc = 2048;
  set.name = "avx2";
  set.full = &gemm_full<float>;
  set.edge = &gemm_edge<float>;
  set.trsm_solve = &avx2_trsm_solve<float>;
  return set;
}

KernelSet<double> avx2_kernel_set_f64() {
  KernelSet<double> set;
  set.mr = kMr;
  set.nr = kVecsPerRow * Ymm<double>::kLanes;
  set.mc = 120;
  set.kc = 256;
  set.nc = 2048;
  set.name = "avx2";
  set.full = &gemm_full<double>;
  set.edge = &gemm_edge<double>;
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
