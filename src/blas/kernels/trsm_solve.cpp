// TRSM diagonal-block solves, one per kernel tier (KernelSet::trsm_solve).
//
// Every tier computes exactly the scalar recurrence of the generic one, per
// element of B and in the same order: b_i -= f_ip * b_p for p ascending,
// then b_i /= a_ii for a non-unit diagonal. The columns of B are independent
// right-hand sides, so the vector tiers only change *which* elements are
// processed together, never the operations applied to one of them — and
// the outputs are bit-identical across tiers.
//
// That holds only while each multiply is rounded before its subtract. GCC's
// default -ffp-contract=fast fuses even _mm512_mul_ps + _mm512_sub_ps into
// an FMA, so this file is compiled with -ffp-contract=off (CMakeLists.txt);
// the vector tiers spell out separate multiply and subtract instructions.
//
// The vector tiers walk B in column slabs of kSlabVecs vectors. One slab of
// a diagonal block (nb rows x 4 vectors: 32 KB for avx512 fp32 at nb = 128)
// stays L1-resident, and row i's slab stays in registers for the whole p
// loop, where the scalar loop streamed whole rows of B (up to ~100 KB each)
// once per p. Forward solves register-block two rows, so rows i and i + 1
// share each row-p load; a backward row i - 1 needs row i before any other
// row, so backward solves go one row at a time. The first touch of a slab
// row (stride ldb, a new page per row) misses to memory, so each row's
// slab in the *next* column slab is prefetched one slab ahead. The m-tail
// slab uses masked loads and stores (AVX-512 k-masks, AVX maskload /
// maskstore); masked-off lanes are never read or written.
#include "blas/kernels/kernel_set.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace adsala::blas::kernels::detail {

template <typename T>
void generic_trsm_solve(bool forward, bool unit_diag, int j0, int j1, int m,
                        const T* a, long a_rs, long a_cs, T* b, long ldb) {
  // Sequential by nature: row i depends on every previously solved row of
  // the block.
  const auto op_a = [&](int i, int p) { return a[i * a_rs + p * a_cs]; };
  if (forward) {
    for (int i = j0; i < j1; ++i) {
      T* row_i = b + i * ldb;
      for (int p = j0; p < i; ++p) {
        const T f = op_a(i, p);
        const T* row_p = b + p * ldb;
        for (int c = 0; c < m; ++c) row_i[c] -= f * row_p[c];
      }
      if (!unit_diag) {
        const T d = op_a(i, i);
        for (int c = 0; c < m; ++c) row_i[c] /= d;
      }
    }
  } else {
    for (int i = j1 - 1; i >= j0; --i) {
      T* row_i = b + i * ldb;
      for (int p = i + 1; p < j1; ++p) {
        const T f = op_a(i, p);
        const T* row_p = b + p * ldb;
        for (int c = 0; c < m; ++c) row_i[c] -= f * row_p[c];
      }
      if (!unit_diag) {
        const T d = op_a(i, i);
        for (int c = 0; c < m; ++c) row_i[c] /= d;
      }
    }
  }
}

template void generic_trsm_solve<float>(bool, bool, int, int, int,
                                        const float*, long, long, float*,
                                        long);
template void generic_trsm_solve<double>(bool, bool, int, int, int,
                                         const double*, long, long, double*,
                                         long);

#if defined(__x86_64__) || defined(__i386__)

namespace {

/// Slab width in vectors: four independent subtract chains per row cover
/// the subtract latency, and nb rows of four vectors fit in L1.
inline constexpr int kSlabVecs = 4;
inline constexpr int kLineBytes = 64;

/// One diagonal block's solve parameters, shared by every slab.
template <typename T>
struct Block {
  bool forward;
  bool unit_diag;
  int j0;
  int j1;
  const T* a;
  long a_rs;
  long a_cs;
  long ldb;

  const T* a_row(int i) const { return a + i * a_rs; }
  /// op(A)(i, p), given a_i = a_row(i).
  T op_a(const T* a_i, int p) const { return a_i[p * a_cs]; }
};

/// Prefetches the kBytes of one slab row at `p` into L1.
template <int kBytes>
inline void prefetch_slab_row(const void* p) {
  const char* c = static_cast<const char*>(p);
  for (int off = 0; off < kBytes; off += kLineBytes) {
    _mm_prefetch(c + off, _MM_HINT_T0);
  }
}

/// Drives one tier over the whole block: full slabs of kSlabVecs vectors,
/// then one masked tail slab of 1..kSlabVecs vectors. `Tier` provides
/// kLanes and slab<NV, kTail>(block, b, tail_lanes, prefetch_next).
template <typename Tier, typename T>
void solve_slabs(const Block<T>& blk, int m, T* b) {
  constexpr int kWidth = kSlabVecs * Tier::kLanes;
  int c0 = 0;
  for (; c0 + kWidth <= m; c0 += kWidth) {
    Tier::template slab<kSlabVecs, false>(blk, b + c0, Tier::kLanes,
                                          c0 + kWidth < m);
  }
  const int rest = m - c0;
  if (rest == 0) return;
  const int nv = (rest + Tier::kLanes - 1) / Tier::kLanes;
  const int lanes = rest - (nv - 1) * Tier::kLanes;
  switch (nv) {
    case 1:
      Tier::template slab<1, true>(blk, b + c0, lanes, false);
      break;
    case 2:
      Tier::template slab<2, true>(blk, b + c0, lanes, false);
      break;
    case 3:
      Tier::template slab<3, true>(blk, b + c0, lanes, false);
      break;
    default:
      Tier::template slab<4, true>(blk, b + c0, lanes, false);
      break;
  }
}

// ------------------------------------------------------------- AVX-512 ----

#define ADSALA_AVX512_INLINE \
  __attribute__((target("avx512f"), always_inline)) static inline

template <typename T>
struct Avx512Ops;

template <>
struct Avx512Ops<float> {
  using V = __m512;
  using Mask = __mmask16;
  static constexpr int kLanes = 16;
  ADSALA_AVX512_INLINE Mask mask(int lanes) {
    return static_cast<Mask>((1u << lanes) - 1u);
  }
  ADSALA_AVX512_INLINE V load(const float* p) { return _mm512_loadu_ps(p); }
  ADSALA_AVX512_INLINE V load(const float* p, Mask k) {
    return _mm512_maskz_loadu_ps(k, p);
  }
  ADSALA_AVX512_INLINE void store(float* p, V v) { _mm512_storeu_ps(p, v); }
  ADSALA_AVX512_INLINE void store(float* p, V v, Mask k) {
    _mm512_mask_storeu_ps(p, k, v);
  }
  ADSALA_AVX512_INLINE V set1(float x) { return _mm512_set1_ps(x); }
  ADSALA_AVX512_INLINE V mul(V x, V y) { return _mm512_mul_ps(x, y); }
  ADSALA_AVX512_INLINE V sub(V x, V y) { return _mm512_sub_ps(x, y); }
  ADSALA_AVX512_INLINE V div(V x, V y) { return _mm512_div_ps(x, y); }
};

template <>
struct Avx512Ops<double> {
  using V = __m512d;
  using Mask = __mmask8;
  static constexpr int kLanes = 8;
  ADSALA_AVX512_INLINE Mask mask(int lanes) {
    return static_cast<Mask>((1u << lanes) - 1u);
  }
  ADSALA_AVX512_INLINE V load(const double* p) { return _mm512_loadu_pd(p); }
  ADSALA_AVX512_INLINE V load(const double* p, Mask k) {
    return _mm512_maskz_loadu_pd(k, p);
  }
  ADSALA_AVX512_INLINE void store(double* p, V v) { _mm512_storeu_pd(p, v); }
  ADSALA_AVX512_INLINE void store(double* p, V v, Mask k) {
    _mm512_mask_storeu_pd(p, k, v);
  }
  ADSALA_AVX512_INLINE V set1(double x) { return _mm512_set1_pd(x); }
  ADSALA_AVX512_INLINE V mul(V x, V y) { return _mm512_mul_pd(x, y); }
  ADSALA_AVX512_INLINE V sub(V x, V y) { return _mm512_sub_pd(x, y); }
  ADSALA_AVX512_INLINE V div(V x, V y) { return _mm512_div_pd(x, y); }
};

/// The AVX-512 tier: four 512-bit vectors per slab row, k-masked tail. Its
/// body repeats the AVX2 tier's line for line, bar the target: a target
/// attribute cannot depend on a template parameter, and an intrinsic only
/// inlines into a function that carries its target.
template <typename T>
struct Avx512Tier {
  using O = Avx512Ops<T>;
  using V = typename O::V;
  using Mask = typename O::Mask;
  static constexpr int kLanes = O::kLanes;

  /// Vector v of a slab row; the tail slab's last vector is masked.
  template <int NV, bool kTail>
  ADSALA_AVX512_INLINE V load(const T* row, int v, Mask k) {
    return kTail && v == NV - 1 ? O::load(row + v * kLanes, k)
                                : O::load(row + v * kLanes);
  }
  template <int NV, bool kTail>
  ADSALA_AVX512_INLINE void store(T* row, int v, V x, Mask k) {
    if (kTail && v == NV - 1) {
      O::store(row + v * kLanes, x, k);
    } else {
      O::store(row + v * kLanes, x);
    }
  }

  /// Solves the block over one slab of NV vectors starting at `b` (the
  /// slab's column 0 in row 0 of B). `tail_lanes` is the live lane count of
  /// the last vector when kTail; `prefetch_next` pulls each row's slab in
  /// the next column slab into L1.
  template <int NV, bool kTail>
  __attribute__((target("avx512f"))) static void slab(const Block<T>& blk,
                                                     T* b, int tail_lanes,
                                                     bool prefetch_next) {
    constexpr int kRowBytes = NV * kLanes * static_cast<int>(sizeof(T));
    const Mask k = O::mask(tail_lanes);
    const int rows = blk.j1 - blk.j0;
    int r = 0;
    if (blk.forward) {
      // Rows i and i + 1 together: both subtract each solved row p < i,
      // then row i + 1 subtracts row i straight from registers.
      for (; r + 2 <= rows; r += 2) {
        const int i = blk.j0 + r;
        const T* a0 = blk.a_row(i);
        const T* a1 = blk.a_row(i + 1);
        T* row0 = b + i * blk.ldb;
        T* row1 = row0 + blk.ldb;
        if (prefetch_next) {
          prefetch_slab_row<kRowBytes>(row0 + NV * kLanes);
          prefetch_slab_row<kRowBytes>(row1 + NV * kLanes);
        }
        V x0[NV];
        V x1[NV];
        for (int v = 0; v < NV; ++v) {
          x0[v] = load<NV, kTail>(row0, v, k);
          x1[v] = load<NV, kTail>(row1, v, k);
        }
        for (int p = blk.j0; p < i; ++p) {
          const V f0 = O::set1(blk.op_a(a0, p));
          const V f1 = O::set1(blk.op_a(a1, p));
          const T* row_p = b + p * blk.ldb;
          for (int v = 0; v < NV; ++v) {
            const V y = load<NV, kTail>(row_p, v, k);
            x0[v] = O::sub(x0[v], O::mul(f0, y));
            x1[v] = O::sub(x1[v], O::mul(f1, y));
          }
        }
        if (!blk.unit_diag) {
          const V d0 = O::set1(blk.op_a(a0, i));
          for (int v = 0; v < NV; ++v) x0[v] = O::div(x0[v], d0);
        }
        const V f1 = O::set1(blk.op_a(a1, i));
        for (int v = 0; v < NV; ++v) x1[v] = O::sub(x1[v], O::mul(f1, x0[v]));
        if (!blk.unit_diag) {
          const V d1 = O::set1(blk.op_a(a1, i + 1));
          for (int v = 0; v < NV; ++v) x1[v] = O::div(x1[v], d1);
        }
        for (int v = 0; v < NV; ++v) {
          store<NV, kTail>(row0, v, x0[v], k);
          store<NV, kTail>(row1, v, x1[v], k);
        }
      }
    }
    // Backward solves, and a forward block's odd last row: one row at a
    // time.
    for (; r < rows; ++r) {
      const int i = blk.forward ? blk.j0 + r : blk.j1 - 1 - r;
      const T* a_i = blk.a_row(i);
      T* row_i = b + i * blk.ldb;
      if (prefetch_next) prefetch_slab_row<kRowBytes>(row_i + NV * kLanes);
      V x[NV];
      for (int v = 0; v < NV; ++v) x[v] = load<NV, kTail>(row_i, v, k);
      const int p_lo = blk.forward ? blk.j0 : i + 1;
      const int p_hi = blk.forward ? i : blk.j1;
      for (int p = p_lo; p < p_hi; ++p) {
        const V f = O::set1(blk.op_a(a_i, p));
        const T* row_p = b + p * blk.ldb;
        for (int v = 0; v < NV; ++v) {
          x[v] = O::sub(x[v], O::mul(f, load<NV, kTail>(row_p, v, k)));
        }
      }
      if (!blk.unit_diag) {
        const V d = O::set1(blk.op_a(a_i, i));
        for (int v = 0; v < NV; ++v) x[v] = O::div(x[v], d);
      }
      for (int v = 0; v < NV; ++v) store<NV, kTail>(row_i, v, x[v], k);
    }
  }
};

#undef ADSALA_AVX512_INLINE

// -------------------------------------------------------------- AVX2 ----

#define ADSALA_AVX2_INLINE \
  __attribute__((target("avx2"), always_inline)) static inline

template <typename T>
struct Avx2Ops;

template <>
struct Avx2Ops<float> {
  using V = __m256;
  using Mask = __m256i;
  static constexpr int kLanes = 8;
  ADSALA_AVX2_INLINE Mask mask(int lanes) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(lanes),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  ADSALA_AVX2_INLINE V load(const float* p) { return _mm256_loadu_ps(p); }
  ADSALA_AVX2_INLINE V load(const float* p, Mask k) {
    return _mm256_maskload_ps(p, k);
  }
  ADSALA_AVX2_INLINE void store(float* p, V v) { _mm256_storeu_ps(p, v); }
  ADSALA_AVX2_INLINE void store(float* p, V v, Mask k) {
    _mm256_maskstore_ps(p, k, v);
  }
  ADSALA_AVX2_INLINE V set1(float x) { return _mm256_set1_ps(x); }
  ADSALA_AVX2_INLINE V mul(V x, V y) { return _mm256_mul_ps(x, y); }
  ADSALA_AVX2_INLINE V sub(V x, V y) { return _mm256_sub_ps(x, y); }
  ADSALA_AVX2_INLINE V div(V x, V y) { return _mm256_div_ps(x, y); }
};

template <>
struct Avx2Ops<double> {
  using V = __m256d;
  using Mask = __m256i;
  static constexpr int kLanes = 4;
  ADSALA_AVX2_INLINE Mask mask(int lanes) {
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(lanes),
                              _mm256_setr_epi64x(0, 1, 2, 3));
  }
  ADSALA_AVX2_INLINE V load(const double* p) { return _mm256_loadu_pd(p); }
  ADSALA_AVX2_INLINE V load(const double* p, Mask k) {
    return _mm256_maskload_pd(p, k);
  }
  ADSALA_AVX2_INLINE void store(double* p, V v) { _mm256_storeu_pd(p, v); }
  ADSALA_AVX2_INLINE void store(double* p, V v, Mask k) {
    _mm256_maskstore_pd(p, k, v);
  }
  ADSALA_AVX2_INLINE V set1(double x) { return _mm256_set1_pd(x); }
  ADSALA_AVX2_INLINE V mul(V x, V y) { return _mm256_mul_pd(x, y); }
  ADSALA_AVX2_INLINE V sub(V x, V y) { return _mm256_sub_pd(x, y); }
  ADSALA_AVX2_INLINE V div(V x, V y) { return _mm256_div_pd(x, y); }
};

/// The AVX2 tier: four 256-bit vectors per slab row, maskload / maskstore
/// tail. Its body repeats the AVX-512 tier's line for line (see there).
template <typename T>
struct Avx2Tier {
  using O = Avx2Ops<T>;
  using V = typename O::V;
  using Mask = typename O::Mask;
  static constexpr int kLanes = O::kLanes;

  /// Vector v of a slab row; the tail slab's last vector is masked.
  template <int NV, bool kTail>
  ADSALA_AVX2_INLINE V load(const T* row, int v, Mask k) {
    return kTail && v == NV - 1 ? O::load(row + v * kLanes, k)
                                : O::load(row + v * kLanes);
  }
  template <int NV, bool kTail>
  ADSALA_AVX2_INLINE void store(T* row, int v, V x, Mask k) {
    if (kTail && v == NV - 1) {
      O::store(row + v * kLanes, x, k);
    } else {
      O::store(row + v * kLanes, x);
    }
  }

  /// Solves the block over one slab of NV vectors starting at `b` (the
  /// slab's column 0 in row 0 of B). `tail_lanes` is the live lane count of
  /// the last vector when kTail; `prefetch_next` pulls each row's slab in
  /// the next column slab into L1.
  template <int NV, bool kTail>
  __attribute__((target("avx2"))) static void slab(const Block<T>& blk,
                                                     T* b, int tail_lanes,
                                                     bool prefetch_next) {
    constexpr int kRowBytes = NV * kLanes * static_cast<int>(sizeof(T));
    const Mask k = O::mask(tail_lanes);
    const int rows = blk.j1 - blk.j0;
    int r = 0;
    if (blk.forward) {
      // Rows i and i + 1 together: both subtract each solved row p < i,
      // then row i + 1 subtracts row i straight from registers.
      for (; r + 2 <= rows; r += 2) {
        const int i = blk.j0 + r;
        const T* a0 = blk.a_row(i);
        const T* a1 = blk.a_row(i + 1);
        T* row0 = b + i * blk.ldb;
        T* row1 = row0 + blk.ldb;
        if (prefetch_next) {
          prefetch_slab_row<kRowBytes>(row0 + NV * kLanes);
          prefetch_slab_row<kRowBytes>(row1 + NV * kLanes);
        }
        V x0[NV];
        V x1[NV];
        for (int v = 0; v < NV; ++v) {
          x0[v] = load<NV, kTail>(row0, v, k);
          x1[v] = load<NV, kTail>(row1, v, k);
        }
        for (int p = blk.j0; p < i; ++p) {
          const V f0 = O::set1(blk.op_a(a0, p));
          const V f1 = O::set1(blk.op_a(a1, p));
          const T* row_p = b + p * blk.ldb;
          for (int v = 0; v < NV; ++v) {
            const V y = load<NV, kTail>(row_p, v, k);
            x0[v] = O::sub(x0[v], O::mul(f0, y));
            x1[v] = O::sub(x1[v], O::mul(f1, y));
          }
        }
        if (!blk.unit_diag) {
          const V d0 = O::set1(blk.op_a(a0, i));
          for (int v = 0; v < NV; ++v) x0[v] = O::div(x0[v], d0);
        }
        const V f1 = O::set1(blk.op_a(a1, i));
        for (int v = 0; v < NV; ++v) x1[v] = O::sub(x1[v], O::mul(f1, x0[v]));
        if (!blk.unit_diag) {
          const V d1 = O::set1(blk.op_a(a1, i + 1));
          for (int v = 0; v < NV; ++v) x1[v] = O::div(x1[v], d1);
        }
        for (int v = 0; v < NV; ++v) {
          store<NV, kTail>(row0, v, x0[v], k);
          store<NV, kTail>(row1, v, x1[v], k);
        }
      }
    }
    // Backward solves, and a forward block's odd last row: one row at a
    // time.
    for (; r < rows; ++r) {
      const int i = blk.forward ? blk.j0 + r : blk.j1 - 1 - r;
      const T* a_i = blk.a_row(i);
      T* row_i = b + i * blk.ldb;
      if (prefetch_next) prefetch_slab_row<kRowBytes>(row_i + NV * kLanes);
      V x[NV];
      for (int v = 0; v < NV; ++v) x[v] = load<NV, kTail>(row_i, v, k);
      const int p_lo = blk.forward ? blk.j0 : i + 1;
      const int p_hi = blk.forward ? i : blk.j1;
      for (int p = p_lo; p < p_hi; ++p) {
        const V f = O::set1(blk.op_a(a_i, p));
        const T* row_p = b + p * blk.ldb;
        for (int v = 0; v < NV; ++v) {
          x[v] = O::sub(x[v], O::mul(f, load<NV, kTail>(row_p, v, k)));
        }
      }
      if (!blk.unit_diag) {
        const V d = O::set1(blk.op_a(a_i, i));
        for (int v = 0; v < NV; ++v) x[v] = O::div(x[v], d);
      }
      for (int v = 0; v < NV; ++v) store<NV, kTail>(row_i, v, x[v], k);
    }
  }
};

#undef ADSALA_AVX2_INLINE

}  // namespace

template <typename T>
void avx2_trsm_solve(bool forward, bool unit_diag, int j0, int j1, int m,
                     const T* a, long a_rs, long a_cs, T* b, long ldb) {
  solve_slabs<Avx2Tier<T>>(
      Block<T>{forward, unit_diag, j0, j1, a, a_rs, a_cs, ldb}, m, b);
}

template <typename T>
void avx512_trsm_solve(bool forward, bool unit_diag, int j0, int j1, int m,
                       const T* a, long a_rs, long a_cs, T* b, long ldb) {
  solve_slabs<Avx512Tier<T>>(
      Block<T>{forward, unit_diag, j0, j1, a, a_rs, a_cs, ldb}, m, b);
}

template void avx2_trsm_solve<float>(bool, bool, int, int, int, const float*,
                                     long, long, float*, long);
template void avx2_trsm_solve<double>(bool, bool, int, int, int,
                                      const double*, long, long, double*,
                                      long);
template void avx512_trsm_solve<float>(bool, bool, int, int, int,
                                       const float*, long, long, float*,
                                       long);
template void avx512_trsm_solve<double>(bool, bool, int, int, int,
                                        const double*, long, long, double*,
                                        long);

#endif  // x86

}  // namespace adsala::blas::kernels::detail
