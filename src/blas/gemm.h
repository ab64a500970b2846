// From-scratch multi-threaded GEMM — the BLAS substrate of ADSALA.
//
// The paper treats vendor BLAS (Intel MKL on Gadi, AMD BLIS on Setonix) as a
// black box whose runtime depends on (m, k, n, n_threads). This module is our
// stand-in: a GotoBLAS/BLIS-style implementation with
//   - three-level cache blocking (NC / KC / MC),
//   - operand packing into contiguous micro-panels,
//   - a register-blocked MR x NR micro-kernel chosen at runtime from the
//     dispatched KernelSet (hand-written AVX2+FMA when the CPU has it,
//     compiler-vectorised generic otherwise; see blas/kernels/dispatch.h),
//   - one pipelined macro-loop at every thread count: the participants
//     pack each B panel cooperatively into a shared ping/pong pair while
//     computing the previous one, and claim MC-row tiles from a stealable
//     deck (blas/pack_pipeline.h). p = 1 is the same loop run by one
//     participant.
// Its thread-count-dependent performance profile (sync + packing overhead vs
// parallel FLOPs) is the behaviour the ML model learns in native mode.
//
// Convention: matrices are ROW-major; ld* is the row stride. gemm computes
//   C <- alpha * op(A) * op(B) + beta * C          (paper Eq. 1)
// with op(X) = X or X^T per the trans flags, op(A) m-by-k, op(B) k-by-n.
#pragma once

#include <cstddef>

#include "blas/kernels/kernel_set.h"

namespace adsala::blas {

enum class Trans { kNo, kYes };

/// Which triangle of a symmetric / triangular operand is stored and touched
/// (shared by syrk / trsm / symm).
enum class Uplo { kLower, kUpper };

/// Whether a triangular matrix has an implicit unit diagonal (trsm).
enum class Diag { kNonUnit, kUnit };

/// Cache-blocking parameters. Fields <= 0 (the default) resolve to the
/// dispatched kernel's preferred blocking (KernelSet::mc/kc/nc — a taller
/// micro-tile wants deeper panels, so the right blocking is per-kernel, not
/// global); explicit positive fields win and are rounded to the active
/// kernel's MR/NR geometry at call time. Exposed so tests/benches can
/// exercise fringe paths and A/B kernel variants per call.
struct GemmTuning {
  int mc = 0;  ///< rows of the packed A block (rounded to MR); 0 = kernel's
  int kc = 0;  ///< depth of the packed A/B blocks; 0 = kernel's
  int nc = 0;  ///< columns of the packed B block (rounded to NR); 0 = kernel's
  /// Micro-kernel variant override; kAuto follows ADSALA_KERNEL / CPUID.
  kernels::Variant variant = kernels::Variant::kAuto;
};

/// Multi-threaded blocked GEMM. nthreads <= 0 selects the pool maximum.
/// Throws std::invalid_argument on negative dimensions or bad strides.
template <typename T>
void gemm(Trans trans_a, Trans trans_b, int m, int n, int k, T alpha,
          const T* a, int lda, const T* b, int ldb, T beta, T* c, int ldc,
          int nthreads = 0, const GemmTuning& tuning = {});

/// BLAS-named convenience wrappers (single / double precision).
void sgemm(Trans trans_a, Trans trans_b, int m, int n, int k, float alpha,
           const float* a, int lda, const float* b, int ldb, float beta,
           float* c, int ldc, int nthreads = 0);
void dgemm(Trans trans_a, Trans trans_b, int m, int n, int k, double alpha,
           const double* a, int lda, const double* b, int ldb, double beta,
           double* c, int ldc, int nthreads = 0);

/// Naive triple-loop reference used as the correctness oracle in tests.
template <typename T>
void reference_gemm(Trans trans_a, Trans trans_b, int m, int n, int k, T alpha,
                    const T* a, int lda, const T* b, int ldb, T beta, T* c,
                    int ldc);

/// Aggregate operand memory in bytes: (mk + kn + mn) * sizeof(element).
/// This is the quantity the paper caps at 100 MB / 500 MB.
inline std::size_t gemm_memory_bytes(std::size_t m, std::size_t k,
                                     std::size_t n, std::size_t elem_size) {
  return (m * k + k * n + m * n) * elem_size;
}

/// FLOP count of one GEMM call (2*m*n*k, ignoring the beta*C pass).
inline double gemm_flops(double m, double k, double n) {
  return 2.0 * m * k * n;
}

}  // namespace adsala::blas
