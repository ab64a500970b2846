// Triangular solve with multiple right-hand sides — third member of the
// served level-3 family (paper future work: "extend ... to other BLAS
// operations").
//
//   op(A) * X = alpha * B,   X overwrites B          (left-side solve)
//
// with op(A) = A or A^T per `trans`, A an n x n triangular matrix (`uplo`
// names the stored triangle, `diag` an implicit unit diagonal), and B an
// n x m right-hand-side block. Row-major; ld* is the row stride.
//
// The implementation is a blocked substitution: small nb x nb diagonal
// triangles are solved in place, and the trailing right-hand-side rows are
// updated with a rank-nb GEMM on the packed micro-kernel path — so the bulk
// of the FLOPs run through the same runtime-dispatched KernelSet as GEMM,
// and the thread-count knob shapes the same packing/sync trade-offs the ML
// model learns. The diagonal solves run on the dispatched tier too
// (KernelSet::trsm_solve) but are inherently sequential (each block depends
// on every block before it), which is exactly why the TRSM optimum sits at
// fewer threads than the equivalent GEMM.
#pragma once

#include "blas/gemm.h"

namespace adsala::blas {

/// Multi-threaded blocked left-side triangular solve, in place over B.
/// nthreads <= 0 selects the pool maximum (threading lives in the GEMM
/// updates). A singular (zero) diagonal produces inf/nan like standard BLAS;
/// no singularity check is performed.
template <typename T>
void trsm(Uplo uplo, Trans trans, Diag diag, int n, int m, T alpha,
          const T* a, int lda, T* b, int ldb, int nthreads = 0,
          const GemmTuning& tuning = {});

void strsm(Uplo uplo, Trans trans, Diag diag, int n, int m, float alpha,
           const float* a, int lda, float* b, int ldb, int nthreads = 0);
void dtrsm(Uplo uplo, Trans trans, Diag diag, int n, int m, double alpha,
           const double* a, int lda, double* b, int ldb, int nthreads = 0);

/// Naive per-column substitution used as the correctness oracle in tests.
template <typename T>
void reference_trsm(Uplo uplo, Trans trans, Diag diag, int n, int m, T alpha,
                    const T* a, int lda, T* b, int ldb);

/// FLOP count: n*n*m multiply-adds over the triangle (half the equivalent
/// (n, n, m) GEMM's 2*n*n*m).
inline double trsm_flops(double n, double m) { return n * n * m; }

}  // namespace adsala::blas
