// Symmetric rank-k update — the paper's "extend to other BLAS operations"
// future work, implemented as a second level-3 routine behind the same
// thread-count selection machinery.
//
//   C <- alpha * A * A^T + beta * C        (trans == kNo,  A is n x k)
//   C <- alpha * A^T * A + beta * C        (trans == kYes, A is k x n)
//
// Row-major; only the `uplo` triangle of C (including the diagonal) is
// referenced and updated.
//
// The update runs through GEMM's macro-loop (detail::run_macro_loop) as the
// (n, n, k) product op(A) * op(A)^T: op(A)^T is the cooperatively packed B
// panel, MC-row tiles are claimed through the steal deck, and row tiles
// outside a column block's triangle are skipped. Tiles crossing the
// diagonal are computed into a scratch tile and written back through a
// triangle mask. Results are bit-identical at every thread count.
#pragma once

#include "blas/gemm.h"

namespace adsala::blas {

template <typename T>
void syrk(Uplo uplo, Trans trans, int n, int k, T alpha, const T* a, int lda,
          T beta, T* c, int ldc, int nthreads = 0,
          const GemmTuning& tuning = {});

void ssyrk(Uplo uplo, Trans trans, int n, int k, float alpha, const float* a,
           int lda, float beta, float* c, int ldc, int nthreads = 0);
void dsyrk(Uplo uplo, Trans trans, int n, int k, double alpha,
           const double* a, int lda, double beta, double* c, int ldc,
           int nthreads = 0);

/// Naive reference used as the correctness oracle in tests.
template <typename T>
void reference_syrk(Uplo uplo, Trans trans, int n, int k, T alpha, const T* a,
                    int lda, T beta, T* c, int ldc);

/// FLOP count: n*(n+1)*k multiply-adds over the triangle.
inline double syrk_flops(double n, double k) { return n * (n + 1.0) * k; }

}  // namespace adsala::blas
