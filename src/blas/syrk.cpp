#include "blas/syrk.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "blas/kernels/dispatch.h"
#include "blas/level3_common.h"
#include "blas/pack.h"
#include "common/pack_arena.h"
#include "common/thread_pool.h"

namespace adsala::blas {

namespace {

/// Logical element of op(A): row i, depth p.
template <typename T>
inline T op_a(const T* a, long lda, Trans trans, int i, int p) {
  return trans == Trans::kNo ? a[i * lda + p] : a[p * lda + i];
}

/// beta pass over the requested triangle rows [row_lo, row_hi).
template <typename T>
void scale_triangle_rows(Uplo uplo, int n, T beta, T* c, int ldc, int row_lo,
                         int row_hi) {
  for (int i = row_lo; i < row_hi; ++i) {
    const int j_lo = uplo == Uplo::kLower ? 0 : i;
    const int j_hi = uplo == Uplo::kLower ? i + 1 : n;
    T* crow = c + static_cast<long>(i) * ldc;
    if (beta == T(1)) continue;
    for (int j = j_lo; j < j_hi; ++j) {
      crow[j] = beta == T(0) ? T(0) : beta * crow[j];
    }
  }
}

/// Balanced row partition of the triangle: thread t's range starts where
/// ~t/p of the triangle's *area* has been covered, not of the rows (row i
/// of a lower triangle costs i+1 column updates).
int triangle_split(Uplo uplo, int n, std::size_t t, std::size_t p) {
  const double frac = static_cast<double>(t) / static_cast<double>(p);
  if (uplo == Uplo::kLower) {
    // rows [0, r) hold fraction (r/n)^2 of the area.
    return static_cast<int>(std::floor(n * std::sqrt(frac)));
  }
  // upper triangle: rows [0, r) hold 1 - ((n-r)/n)^2 of the area.
  return static_cast<int>(std::floor(n * (1.0 - std::sqrt(1.0 - frac))));
}

/// Blocked rank-k update of rows [row_lo, row_hi) of the triangle, using the
/// dispatched micro-kernel over packed panels of A (as both operands: the
/// "B" matrix of the product is op(A) transposed). Tiles entirely inside the
/// triangle go through the kernel directly; tiles crossing the diagonal are
/// accumulated into a zeroed scratch tile and masked into C.
///
/// Each thread packs its own op(A)^T panels even though the column ranges of
/// neighbouring threads overlap; the duplicated packing traffic buys a
/// barrier-free schedule (threads never wait on each other). GEMM makes the
/// opposite call with its cooperatively packed shared B — if skinny-n SYRK
/// shapes ever dominate, that is the scheme to port over.
template <typename T>
void syrk_rows_blocked(const kernels::KernelSet<T>& ks, Uplo uplo, Trans trans,
                       int n, int k, T alpha, const T* a, int lda, T* c,
                       int ldc, int row_lo, int row_hi, int mc, int kc,
                       int nc) {
  if (row_lo >= row_hi) return;
  const int mr = ks.mr;
  const int nr = ks.nr;

  // Columns this row range can touch in its triangle.
  const int col_lo = uplo == Uplo::kLower ? 0 : row_lo;
  const int col_hi = uplo == Uplo::kLower ? row_hi : n;

  // Private packing scratch (this schedule is barrier-free, so each thread
  // owns both panels): the one-participant carve, from the thread's arena
  // slab in one piece.
  const auto carve = detail::carve_loop_scratch<T>(1, ks, {mc, kc, nc},
                                                   col_hi - col_lo);
  T* a_pack = carve.a_pack;
  T* b_pack = carve.b_bufs[0];
  T tile[kernels::kMaxMr * kernels::kMaxNr];

  for (int jc = col_lo; jc < col_hi; jc += nc) {
    const int nc_eff = std::min(nc, col_hi - jc);
    const int nc_panels = (nc_eff + nr - 1) / nr;
    for (int pc = 0; pc < k; pc += kc) {
      const int kc_eff = std::min(kc, k - pc);

      // Pack the second operand: logical B(p, j) = op(A)(j, p).
      for (int q = 0; q < nc_panels; ++q) {
        const int j0 = jc + q * nr;
        const int cols = std::min(nr, col_hi - j0);
        T* dst = b_pack + static_cast<long>(q) * kc_eff * nr;
        if (trans == Trans::kNo) {
          // op(A)(j, p) = a[j*lda + p]: transposed read of A.
          detail::pack_b_trans<T>(a + static_cast<long>(j0) * lda + pc, lda,
                                  kc_eff, cols, nr, dst);
        } else {
          // op(A)(j, p) = a[p*lda + j]: straight read of A.
          detail::pack_b<T>(a + static_cast<long>(pc) * lda + j0, lda, kc_eff,
                            cols, nr, dst);
        }
      }

      for (int ic = row_lo; ic < row_hi; ic += mc) {
        const int mc_eff = std::min(mc, row_hi - ic);
        // Skip A blocks whose entire row range lies outside the triangle
        // relative to this column block.
        if (uplo == Uplo::kLower && jc > ic + mc_eff - 1) continue;
        if (uplo == Uplo::kUpper && jc + nc_eff - 1 < ic) continue;

        if (trans == Trans::kNo) {
          detail::pack_a<T>(a + static_cast<long>(ic) * lda + pc, lda, mc_eff,
                            kc_eff, mr, a_pack);
        } else {
          detail::pack_a_trans<T>(a + static_cast<long>(pc) * lda + ic, lda,
                                  mc_eff, kc_eff, mr, a_pack);
        }

        for (int jr = 0; jr < nc_eff; jr += nr) {
          const int gj = jc + jr;
          const int cols = std::min(nr, nc_eff - jr);
          const T* b_panel =
              b_pack + static_cast<long>(jr / nr) * kc_eff * nr;
          for (int ir = 0; ir < mc_eff; ir += mr) {
            const int gi = ic + ir;
            const int rows = std::min(mr, mc_eff - ir);

            bool outside, inside;
            if (uplo == Uplo::kLower) {
              outside = gj > gi + rows - 1;     // min col beyond max row
              inside = gj + cols - 1 <= gi;     // max col within min row
            } else {
              outside = gj + cols - 1 < gi;     // max col before min row
              inside = gj >= gi + rows - 1;     // min col at/after max row
            }
            if (outside) continue;

            const T* a_panel =
                a_pack + static_cast<long>(ir / mr) * kc_eff * mr;
            T* c_tile = c + static_cast<long>(gi) * ldc + gj;
            if (inside) {
              if (rows == mr && cols == nr) {
                ks.full(kc_eff, alpha, a_panel, b_panel, c_tile, ldc);
              } else {
                ks.edge(kc_eff, alpha, a_panel, b_panel, c_tile, ldc, rows,
                        cols);
              }
            } else {
              // Diagonal-crossing tile: compute the full rectangle into a
              // zeroed scratch tile, then add back only the triangle part.
              std::fill_n(tile, static_cast<std::size_t>(rows) * nr, T(0));
              ks.edge(kc_eff, alpha, a_panel, b_panel, tile, nr, rows, cols);
              for (int i = 0; i < rows; ++i) {
                const int ci = gi + i;
                T* crow = c + static_cast<long>(ci) * ldc;
                for (int j = 0; j < cols; ++j) {
                  const int cj = gj + j;
                  const bool in_triangle =
                      uplo == Uplo::kLower ? cj <= ci : cj >= ci;
                  if (in_triangle) crow[cj] += tile[i * nr + j];
                }
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace

template <typename T>
void syrk(Uplo uplo, Trans trans, int n, int k, T alpha, const T* a, int lda,
          T beta, T* c, int ldc, int nthreads, const GemmTuning& tuning) {
  if (n < 0 || k < 0) throw std::invalid_argument("syrk: negative dimension");
  const int a_cols = trans == Trans::kNo ? k : n;
  if (lda < std::max(1, a_cols) || ldc < std::max(1, n)) {
    throw std::invalid_argument("syrk: leading dimension too small");
  }
  if (n == 0) return;

  ThreadPool& pool = ThreadPool::global();
  const std::size_t p = detail::resolve_threads(nthreads, n);

  if (k == 0 || alpha == T(0)) {
    // Pure beta pass over the triangle (ahead of any tuning resolution, as
    // in every level-3 driver — see level3_common.h).
    pool.parallel_region(p, [&](std::size_t tid, std::size_t nt) {
      const int lo = triangle_split(uplo, n, tid, nt);
      const int hi = triangle_split(uplo, n, tid + 1, nt);
      scale_triangle_rows(uplo, n, beta, c, ldc, lo, hi);
    });
    return;
  }

  const kernels::KernelSet<T>& ks = kernels::kernel_set<T>(tuning.variant);
  // The diagonal-tile scratch below is sized kMaxMr x kMaxNr on the stack; a
  // future kernel outgrowing those bounds must fail loudly, not overflow.
  if (ks.mr > kernels::kMaxMr || ks.nr > kernels::kMaxNr) {
    throw std::logic_error("syrk: kernel geometry exceeds kMaxMr/kMaxNr");
  }
  const auto [mc, kc, nc] = detail::block_geometry(ks, tuning);

  // Each thread owns disjoint triangle rows, so the beta pass and the update
  // need no cross-thread synchronisation.
  pool.parallel_region(p, [&](std::size_t tid, std::size_t nt) {
    const int lo = triangle_split(uplo, n, tid, nt);
    const int hi = triangle_split(uplo, n, tid + 1, nt);
    scale_triangle_rows(uplo, n, beta, c, ldc, lo, hi);
    syrk_rows_blocked(ks, uplo, trans, n, k, alpha, a, lda, c, ldc, lo, hi,
                      mc, kc, nc);
  });
}

void ssyrk(Uplo uplo, Trans trans, int n, int k, float alpha, const float* a,
           int lda, float beta, float* c, int ldc, int nthreads) {
  syrk<float>(uplo, trans, n, k, alpha, a, lda, beta, c, ldc, nthreads);
}

void dsyrk(Uplo uplo, Trans trans, int n, int k, double alpha,
           const double* a, int lda, double beta, double* c, int ldc,
           int nthreads) {
  syrk<double>(uplo, trans, n, k, alpha, a, lda, beta, c, ldc, nthreads);
}

template <typename T>
void reference_syrk(Uplo uplo, Trans trans, int n, int k, T alpha, const T* a,
                    int lda, T beta, T* c, int ldc) {
  for (int i = 0; i < n; ++i) {
    const int j_lo = uplo == Uplo::kLower ? 0 : i;
    const int j_hi = uplo == Uplo::kLower ? i + 1 : n;
    for (int j = j_lo; j < j_hi; ++j) {
      T acc = T(0);
      for (int p = 0; p < k; ++p) {
        acc += op_a(a, lda, trans, i, p) * op_a(a, lda, trans, j, p);
      }
      T& out = c[static_cast<long>(i) * ldc + j];
      out = alpha * acc + (beta == T(0) ? T(0) : beta * out);
    }
  }
}

template void syrk<float>(Uplo, Trans, int, int, float, const float*, int,
                          float, float*, int, int, const GemmTuning&);
template void syrk<double>(Uplo, Trans, int, int, double, const double*, int,
                           double, double*, int, int, const GemmTuning&);
template void reference_syrk<float>(Uplo, Trans, int, int, float,
                                    const float*, int, float, float*, int);
template void reference_syrk<double>(Uplo, Trans, int, int, double,
                                     const double*, int, double, double*,
                                     int);

}  // namespace adsala::blas
