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
// A and B panels each unrolled block, mirroring the AVX2 tier. The kernels
// are compiled with per-function target attributes rather than per-file
// -mavx512f so this TU still builds (and the rest of the library stays
// portable) under the default x86-64 baseline; the dispatcher only hands
// these pointers out after a CPUID probe confirms AVX-512F.
//
// The accumulator block must never leave the kernel function. It is a local
// array that only always_inline helpers touch, with every index a
// compile-time constant, so GCC keeps all 28 accumulators in zmm registers
// for the whole kc loop. Passing it to an out-of-line helper (or taking its
// address any other way) makes the compiler store every accumulator back to
// memory after every FMA, which holds the kernel to ~40 % of its FMA peak
// (bench_gemm_kernel's BM_MicroKernel). To check a build, disassemble the
// kc loop and look for accumulator traffic:
//
//   objdump -d --no-show-raw-insn -C
//       build/CMakeFiles/adsala.dir/src/blas/kernels/avx512.cpp.o
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

#define ADSALA_AVX512 __attribute__((target("avx512f"), always_inline)) inline

/// One zmm register's worth of T: the handful of intrinsics the kernel
/// template below needs, so fp32 and fp64 share one kernel body.
template <typename T>
struct Zmm;

template <>
struct Zmm<float> {
  using Vec = __m512;
  using Mask = __mmask16;
  static constexpr int kLanes = 16;
  ADSALA_AVX512 static Vec zero() { return _mm512_setzero_ps(); }
  ADSALA_AVX512 static Vec load(const float* p) { return _mm512_loadu_ps(p); }
  ADSALA_AVX512 static Vec splat(float x) { return _mm512_set1_ps(x); }
  ADSALA_AVX512 static Vec fma(Vec a, Vec b, Vec c) {
    return _mm512_fmadd_ps(a, b, c);
  }
  ADSALA_AVX512 static void store(float* p, Vec v) { _mm512_storeu_ps(p, v); }
  ADSALA_AVX512 static Vec load(Mask m, const float* p) {
    return _mm512_maskz_loadu_ps(m, p);
  }
  ADSALA_AVX512 static void store(Mask m, float* p, Vec v) {
    _mm512_mask_storeu_ps(p, m, v);
  }
};

template <>
struct Zmm<double> {
  using Vec = __m512d;
  using Mask = __mmask8;
  static constexpr int kLanes = 8;
  ADSALA_AVX512 static Vec zero() { return _mm512_setzero_pd(); }
  ADSALA_AVX512 static Vec load(const double* p) { return _mm512_loadu_pd(p); }
  ADSALA_AVX512 static Vec splat(double x) { return _mm512_set1_pd(x); }
  ADSALA_AVX512 static Vec fma(Vec a, Vec b, Vec c) {
    return _mm512_fmadd_pd(a, b, c);
  }
  ADSALA_AVX512 static void store(double* p, Vec v) { _mm512_storeu_pd(p, v); }
  ADSALA_AVX512 static Vec load(Mask m, const double* p) {
    return _mm512_maskz_loadu_pd(m, p);
  }
  ADSALA_AVX512 static void store(Mask m, double* p, Vec v) {
    _mm512_mask_storeu_pd(p, m, v);
  }
};

/// Both precisions use a 14-row tile two zmm registers wide.
inline constexpr int kMr = 14;
inline constexpr int kVecsPerRow = 2;

/// Software-prefetch lookahead into the packed panels, in k iterations.
/// The panels are read strictly sequentially; a fixed distance of ~8
/// iterations (448 B fp32 / 896 B fp64 ahead in A) keeps the loads inside
/// the L1 stream. Shorter than the AVX2 tier's 16 because the 14-row panel
/// advances 2.3x as many bytes per iteration.
inline constexpr int kPrefetchIters = 8;

template <typename T>
using Acc = typename Zmm<T>::Vec[kMr][kVecsPerRow];

/// acc[i][h] += a[i] * b[h * lanes .. +lanes) for one k step.
template <typename T>
ADSALA_AVX512 void step(const T* a, const T* b, Acc<T>& acc) {
  using V = Zmm<T>;
  const typename V::Vec b0 = V::load(b);
  const typename V::Vec b1 = V::load(b + V::kLanes);
#pragma GCC unroll 14
  for (int i = 0; i < kMr; ++i) {
    const typename V::Vec ai = V::splat(a[i]);
    acc[i][0] = V::fma(ai, b0, acc[i][0]);
    acc[i][1] = V::fma(ai, b1, acc[i][1]);
  }
}

/// Prefetches `bytes` of a sequential panel starting at p, one line each.
template <int kBytes>
ADSALA_AVX512 void prefetch_lines(const void* p) {
  const char* base = static_cast<const char*>(p);
#pragma GCC unroll 8
  for (int off = 0; off < kBytes; off += 64) {
    _mm_prefetch(base + off, _MM_HINT_T0);
  }
}

/// The kc loop: acc = A panel * B panel, starting from zero.
template <typename T>
ADSALA_AVX512 void accumulate(int kc, const T* a, const T* b, Acc<T>& acc) {
  constexpr int kNr = kVecsPerRow * Zmm<T>::kLanes;
#pragma GCC unroll 14
  for (int i = 0; i < kMr; ++i) {
    acc[i][0] = Zmm<T>::zero();
    acc[i][1] = Zmm<T>::zero();
  }
  // x4 unrolled main loop: the four independent FMA groups per row give the
  // scheduler room to hide the 4-cycle FMA latency across 28 live
  // accumulators. Each block prefetches the four steps' worth of panel
  // lines kPrefetchIters ahead: A advances 4 * MR elements (224 B fp32 /
  // 448 B fp64) and B 4 * NR (512 B either way). The 14-row tile leaves
  // load-port slack (16 load uops vs 28 FMAs per step), so prefetching the
  // B stream too is free and hides the L2 latency of its first pass.
  int p = 0;
  for (; p + 4 <= kc; p += 4) {
    prefetch_lines<4 * kMr * static_cast<int>(sizeof(T))>(
        a + kPrefetchIters * kMr);
    prefetch_lines<4 * kNr * static_cast<int>(sizeof(T))>(
        b + kPrefetchIters * kNr);
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
__attribute__((target("avx512f"))) void gemm_full(int kc, T alpha, const T* a,
                                                  const T* b, T* c, int ldc) {
  using V = Zmm<T>;
  Acc<T> acc;
  accumulate<T>(kc, a, b, acc);
  const typename V::Vec va = V::splat(alpha);
#pragma GCC unroll 14
  for (int i = 0; i < kMr; ++i) {
    T* crow = c + i * static_cast<long>(ldc);
    V::store(crow, V::fma(va, acc[i][0], V::load(crow)));
    V::store(crow + V::kLanes,
             V::fma(va, acc[i][1], V::load(crow + V::kLanes)));
  }
}

/// Lane mask selecting the first clamp(n, 0, lanes) lanes.
template <typename T>
ADSALA_AVX512 typename Zmm<T>::Mask first_lanes(int n) {
  if (n <= 0) return 0;
  if (n >= Zmm<T>::kLanes) return static_cast<typename Zmm<T>::Mask>(~0u);
  return static_cast<typename Zmm<T>::Mask>((1u << n) - 1u);
}

/// Fringe tile: the same register block and the same fused write-back as
/// gemm_full, masked to rows x cols. The row guard is a constant-index
/// test per unrolled row, so the accumulators stay in registers.
template <typename T>
__attribute__((target("avx512f"))) void gemm_edge(int kc, T alpha, const T* a,
                                                  const T* b, T* c, int ldc,
                                                  int rows, int cols) {
  using V = Zmm<T>;
  Acc<T> acc;
  accumulate<T>(kc, a, b, acc);
  const typename V::Vec va = V::splat(alpha);
  const typename V::Mask m0 = first_lanes<T>(cols);
  const typename V::Mask m1 = first_lanes<T>(cols - V::kLanes);
#pragma GCC unroll 14
  for (int i = 0; i < kMr; ++i) {
    if (i < rows) {
      T* crow = c + i * static_cast<long>(ldc);
      V::store(m0, crow, V::fma(va, acc[i][0], V::load(m0, crow)));
      V::store(m1, crow + V::kLanes,
               V::fma(va, acc[i][1], V::load(m1, crow + V::kLanes)));
    }
  }
}

#undef ADSALA_AVX512

template <typename T>
KernelSet<T> avx512_kernel_set() {
  KernelSet<T> set;
  set.mr = kMr;
  set.nr = kVecsPerRow * Zmm<T>::kLanes;
  // The 14-row tile wants taller MC (16 micro-panels) and a deeper KC than
  // the 6-row tiers: its per-C-tile write-back is 3.5 KB, so a kc=512 panel
  // halves the write-back rate for the same packed traffic (measured best
  // in the dev-host blocking sweep at 1024^3, fp32 and fp64 alike).
  set.mc = 224;
  set.kc = 512;
  set.nc = 2048;
  set.name = "avx512";
  set.full = &gemm_full<T>;
  set.edge = &gemm_edge<T>;
  set.trsm_solve = &avx512_trsm_solve<T>;
  return set;
}

}  // namespace

KernelSet<float> avx512_kernel_set_f32() { return avx512_kernel_set<float>(); }

KernelSet<double> avx512_kernel_set_f64() {
  return avx512_kernel_set<double>();
}

}  // namespace adsala::blas::kernels::detail

#else  // non-x86: the dispatcher never selects kAvx512, but the symbols must
       // exist. Return empty sets; dispatch.cpp treats them as unavailable.

namespace adsala::blas::kernels::detail {
KernelSet<float> avx512_kernel_set_f32() { return {}; }
KernelSet<double> avx512_kernel_set_f64() { return {}; }
}  // namespace adsala::blas::kernels::detail

#endif
