#include "blas/syrk.h"

#include <algorithm>
#include <stdexcept>

#include "blas/kernels/dispatch.h"
#include "blas/level3_common.h"
#include "blas/pack.h"

namespace adsala::blas {

namespace {

/// Logical element of op(A): row i, depth p.
template <typename T>
inline T op_a(const T* a, long lda, Trans trans, int i, int p) {
  return trans == Trans::kNo ? a[i * lda + p] : a[p * lda + i];
}

/// beta pass over the triangle part of rows [row_lo, row_hi) x columns
/// [col_lo, col_hi): one macro-loop tile's first-touch scale, and over the
/// full width the whole of a degenerate call.
template <typename T>
void scale_triangle_block(Uplo uplo, T beta, T* c, int ldc, int row_lo,
                          int row_hi, int col_lo, int col_hi) {
  if (beta == T(1)) return;
  for (int i = row_lo; i < row_hi; ++i) {
    const int j_lo = uplo == Uplo::kLower ? col_lo : std::max(col_lo, i);
    const int j_hi = uplo == Uplo::kLower ? std::min(col_hi, i + 1) : col_hi;
    if (j_lo >= j_hi) continue;
    detail::scale_rows_range(c + j_lo, static_cast<long>(ldc), i, i + 1,
                             j_hi - j_lo, beta);
  }
}

/// The triangle-masked macro-kernel: C rows [ic, ic+mc_eff) x columns
/// [jc, jc+nc_eff) += alpha * packed A block * packed op(A)^T block, over
/// the uplo triangle only. Micro-tiles entirely inside the triangle go
/// through the kernel directly; tiles crossing the diagonal are accumulated
/// into a zeroed scratch tile and masked into C. ic and jc sit on the MR and
/// NR grids, so a micro-tile's class depends on its position in C alone.
template <typename T>
void syrk_macro_kernel(const kernels::KernelSet<T>& ks, Uplo uplo, int ic,
                       int jc, int mc_eff, int nc_eff, int kc_eff, T alpha,
                       const T* a_pack, const T* b_pack, T* c, int ldc) {
  const int mr = ks.mr;
  const int nr = ks.nr;
  T tile[kernels::kMaxMr * kernels::kMaxNr];
  for (int jr = 0; jr < nc_eff; jr += nr) {
    const int gj = jc + jr;
    const int cols = std::min(nr, nc_eff - jr);
    const T* b_panel = b_pack + static_cast<long>(jr / nr) * kc_eff * nr;
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

      const T* a_panel = a_pack + static_cast<long>(ir / mr) * kc_eff * mr;
      T* c_tile = c + static_cast<long>(gi) * ldc + gj;
      if (inside) {
        if (rows == mr && cols == nr) {
          ks.full(kc_eff, alpha, a_panel, b_panel, c_tile, ldc);
        } else {
          ks.edge(kc_eff, alpha, a_panel, b_panel, c_tile, ldc, rows, cols);
        }
      } else {
        // Diagonal-crossing tile: compute the full rectangle into a zeroed
        // scratch tile, then add back only the triangle part.
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

  // The kernel set is resolved ahead of the thread count, which is capped at
  // one MR-row micro-tile per participant. The lookup reads only
  // tuning.variant, so the degenerate pass still ignores the blocking fields.
  const kernels::KernelSet<T>& ks = kernels::kernel_set<T>(tuning.variant);
  const std::size_t p =
      detail::resolve_threads(nthreads, (n + ks.mr - 1) / ks.mr);

  if (k == 0 || alpha == T(0)) {
    // Pure beta pass over the triangle (ahead of any tuning resolution, as in
    // every level-3 driver — see level3_common.h).
    detail::row_chunks_pass(p, n, [&](int lo, int hi) {
      scale_triangle_block(uplo, beta, c, ldc, lo, hi, 0, n);
    });
    return;
  }

  // The diagonal-tile scratch is sized kMaxMr x kMaxNr on the stack; a
  // future kernel outgrowing those bounds must fail loudly, not overflow.
  if (ks.mr > kernels::kMaxMr || ks.nr > kernels::kMaxNr) {
    throw std::logic_error("syrk: kernel geometry exceeds kMaxMr/kMaxNr");
  }
  detail::BlockGeom g = detail::block_geometry(ks, tuning);
  // At p > 1 the row tiles shrink to ~n/4p rows (still MR-aligned, never
  // above mc), so an n <= mc triangle still spreads over the steal deck.
  // Tile edges stay on the MR grid and kc blocking is unchanged, so every
  // C element keeps its micro-tile class and operation order at any p.
  if (p > 1) {
    const long per_tile = (n + 4 * static_cast<long>(p) - 1) /
                          (4 * static_cast<long>(p));
    g.mc = std::min<long>(g.mc, ks.mr * ((per_tile + ks.mr - 1) / ks.mr));
  }

  // The shared macro-loop over the (n, n, k) product op(A) * op(A)^T: the
  // "B" operand is op(A)^T, packed cooperatively once per panel.
  const bool lower = uplo == Uplo::kLower;
  const auto scratch = detail::carve_loop_scratch<T>(p, ks, g, n);
  detail::run_macro_loop<T>(
      p, ks, g, n, n, k, scratch,
      // Logical B(p, j) = op(A)(j, p): A read transposed when trans == kNo.
      [&](int jc, int pc, int kc_eff, int q, T* dst) {
        const int j0 = jc + q * ks.nr;
        const int cols = std::min(ks.nr, n - j0);
        detail::pack_b_chunk<T>(trans == Trans::kNo, a, lda, pc, j0, kc_eff,
                                cols, ks.nr, dst);
      },
      [&](int jc, int pc, int nc_eff, int kc_eff, bool first_of_jc, int ic,
          int mc_eff, T* a_pack, const T* b_buf) {
        // Block skip: the tile's rows meet no triangle column of this jc
        // block (so its triangle part, and its beta scale, are empty).
        if (lower ? jc > ic + mc_eff - 1 : jc + nc_eff - 1 < ic) return;
        if (first_of_jc) {
          scale_triangle_block(uplo, beta, c, ldc, ic, ic + mc_eff, jc,
                               jc + nc_eff);
        }
        if (trans == Trans::kNo) {
          detail::pack_a<T>(a + static_cast<long>(ic) * lda + pc, lda,
                            mc_eff, kc_eff, ks.mr, a_pack);
        } else {
          detail::pack_a_trans<T>(a + static_cast<long>(pc) * lda + ic, lda,
                                  mc_eff, kc_eff, ks.mr, a_pack);
        }
        syrk_macro_kernel<T>(ks, uplo, ic, jc, mc_eff, nc_eff, kc_eff, alpha,
                             a_pack, b_buf, c, ldc);
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
