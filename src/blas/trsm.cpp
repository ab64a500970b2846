#include "blas/trsm.h"

#include <algorithm>
#include <stdexcept>

#include "blas/kernels/dispatch.h"
#include "blas/level3_common.h"
#include "common/thread_pool.h"

namespace adsala::blas {

namespace {

/// Logical element of op(A): row i, column p.
template <typename T>
inline T op_a(const T* a, long lda, Trans trans, int i, int p) {
  return trans == Trans::kNo ? a[i * lda + p] : a[p * lda + i];
}

}  // namespace

template <typename T>
void trsm(Uplo uplo, Trans trans, Diag diag, int n, int m, T alpha,
          const T* a, int lda, T* b, int ldb, int nthreads,
          const GemmTuning& tuning) {
  if (n < 0 || m < 0) throw std::invalid_argument("trsm: negative dimension");
  if (lda < std::max(1, n) || ldb < std::max(1, m)) {
    throw std::invalid_argument("trsm: leading dimension too small");
  }
  if (n == 0 || m == 0) return;

  // alpha scales the right-hand side exactly once, up front (alpha == 0
  // degenerates to B = 0: inv(A) * 0 needs no solve). As in every level-3
  // driver, this degenerate path stays ahead of any tuning resolution.
  if (alpha != T(1)) {
    detail::scale_rows_pass(detail::resolve_threads(nthreads), n, m, alpha, b,
                            static_cast<long>(ldb));
  }
  if (alpha == T(0)) return;

  // op(A) is effectively lower triangular (forward substitution) when the
  // stored triangle and the transpose flag agree.
  const bool forward = (uplo == Uplo::kLower) == (trans == Trans::kNo);

  // Diagonal-block size: small enough that the sequential in-block solves
  // stay a sliver of the total work, large enough that the trailing GEMM
  // updates run at the panel depth the dispatched micro-kernel's blocking
  // resolves to (tuning.kc may be 0 = kernel-preferred, so resolve first).
  const auto& ks = kernels::kernel_set<T>(tuning.variant);
  const auto geom = detail::block_geometry(ks, tuning);
  const int nb = std::clamp(geom.kc / 4, 16, 256);

  // op(A)(i, p) = a[i * a_rs + p * a_cs] for the dispatched diagonal solve.
  const long a_rs = trans == Trans::kNo ? lda : 1;
  const long a_cs = trans == Trans::kNo ? 1 : lda;
  const bool unit_diag = diag == Diag::kUnit;

  // Blocked substitution: solve one diagonal block on the caller's thread
  // with the dispatched tier's trsm_solve, then fold its solution into every
  // remaining row with one multi-threaded GEMM (eager trailing update). trsm
  // itself never opens a parallel region, so the non-reentrant pool is only
  // entered through gemm / scale_b.
  if (forward) {
    for (int j0 = 0; j0 < n; j0 += nb) {
      const int j1 = std::min(j0 + nb, n);
      ks.trsm_solve(/*forward=*/true, unit_diag, j0, j1, m, a, a_rs, a_cs, b,
                    ldb);
      if (j1 < n) {
        // B[j1:n) -= op(A)[j1:n, j0:j1) * B[j0:j1).
        const T* a_sub = trans == Trans::kNo
                             ? a + static_cast<long>(j1) * lda + j0
                             : a + static_cast<long>(j0) * lda + j1;
        gemm<T>(trans, Trans::kNo, n - j1, m, j1 - j0, T(-1), a_sub, lda,
                b + static_cast<long>(j0) * ldb, ldb, T(1),
                b + static_cast<long>(j1) * ldb, ldb, nthreads, tuning);
      }
    }
  } else {
    for (int j1 = n; j1 > 0; j1 -= nb) {
      const int j0 = std::max(0, j1 - nb);
      ks.trsm_solve(/*forward=*/false, unit_diag, j0, j1, m, a, a_rs, a_cs, b,
                    ldb);
      if (j0 > 0) {
        // B[0:j0) -= op(A)[0:j0, j0:j1) * B[j0:j1).
        const T* a_sub = trans == Trans::kNo
                             ? a + j0
                             : a + static_cast<long>(j0) * lda;
        gemm<T>(trans, Trans::kNo, j0, m, j1 - j0, T(-1), a_sub, lda,
                b + static_cast<long>(j0) * ldb, ldb, T(1), b, ldb, nthreads,
                tuning);
      }
    }
  }
}

void strsm(Uplo uplo, Trans trans, Diag diag, int n, int m, float alpha,
           const float* a, int lda, float* b, int ldb, int nthreads) {
  trsm<float>(uplo, trans, diag, n, m, alpha, a, lda, b, ldb, nthreads);
}

void dtrsm(Uplo uplo, Trans trans, Diag diag, int n, int m, double alpha,
           const double* a, int lda, double* b, int ldb, int nthreads) {
  trsm<double>(uplo, trans, diag, n, m, alpha, a, lda, b, ldb, nthreads);
}

template <typename T>
void reference_trsm(Uplo uplo, Trans trans, Diag diag, int n, int m, T alpha,
                    const T* a, int lda, T* b, int ldb) {
  const bool forward = (uplo == Uplo::kLower) == (trans == Trans::kNo);
  for (int c = 0; c < m; ++c) {
    for (int step = 0; step < n; ++step) {
      const int i = forward ? step : n - 1 - step;
      T s = alpha * b[static_cast<long>(i) * ldb + c];
      const int p_lo = forward ? 0 : i + 1;
      const int p_hi = forward ? i : n;
      for (int p = p_lo; p < p_hi; ++p) {
        s -= op_a(a, lda, trans, i, p) * b[static_cast<long>(p) * ldb + c];
      }
      if (diag == Diag::kNonUnit) s /= op_a(a, lda, trans, i, i);
      b[static_cast<long>(i) * ldb + c] = s;
    }
  }
}

template void trsm<float>(Uplo, Trans, Diag, int, int, float, const float*,
                          int, float*, int, int, const GemmTuning&);
template void trsm<double>(Uplo, Trans, Diag, int, int, double, const double*,
                           int, double*, int, int, const GemmTuning&);
template void reference_trsm<float>(Uplo, Trans, Diag, int, int, float,
                                    const float*, int, float*, int);
template void reference_trsm<double>(Uplo, Trans, Diag, int, int, double,
                                     const double*, int, double*, int);

}  // namespace adsala::blas
