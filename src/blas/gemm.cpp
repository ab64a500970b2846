#include "blas/gemm.h"

#include <algorithm>
#include <stdexcept>

#include "blas/kernels/dispatch.h"
#include "blas/level3_common.h"
#include "blas/pack.h"

namespace adsala::blas {

namespace {

void validate(Trans trans_a, Trans trans_b, int m, int n, int k, int lda,
              int ldb, int ldc) {
  if (m < 0 || n < 0 || k < 0) {
    throw std::invalid_argument("gemm: negative dimension");
  }
  const int a_cols = trans_a == Trans::kNo ? k : m;
  const int b_cols = trans_b == Trans::kNo ? n : k;
  if (lda < std::max(1, a_cols) || ldb < std::max(1, b_cols) ||
      ldc < std::max(1, n)) {
    throw std::invalid_argument("gemm: leading dimension too small");
  }
}

}  // namespace

template <typename T>
void gemm(Trans trans_a, Trans trans_b, int m, int n, int k, T alpha,
          const T* a, int lda, const T* b, int ldb, T beta, T* c, int ldc,
          int nthreads, const GemmTuning& tuning) {
  validate(trans_a, trans_b, m, n, k, lda, ldb, ldc);
  if (m == 0 || n == 0) return;

  const std::size_t p = detail::resolve_threads(nthreads);

  // Degenerate products reduce to the beta pass (deliberately ahead of any
  // tuning resolution: a beta-only call must not depend on blocking fields).
  if (k == 0 || alpha == T(0)) {
    detail::scale_rows_pass(p, m, n, beta, c, static_cast<long>(ldc));
    return;
  }

  // Micro-kernel geometry is a runtime property of the dispatched set.
  const kernels::KernelSet<T>& ks = kernels::kernel_set<T>(tuning.variant);
  const detail::BlockGeom g = detail::block_geometry(ks, tuning);

  // The pack pipeline (see blas/pack_pipeline.h): while the participants
  // compute kc-panel i out of one B buffer, their cooperative pack of panel
  // i+1 proceeds into the other, and MC-row tiles are claimed through a
  // stealable deck. p == 1 (including nested-region calls) runs the same
  // loop on the calling thread out of its own thread slab.
  const auto scratch = detail::carve_loop_scratch<T>(p, ks, g, n);
  detail::run_macro_loop<T>(
      p, ks, g, m, n, k, scratch,
      // Cooperative B pack: one NR-column micro-panel of the kc block.
      [&](int jc, int pc, int kc_eff, int q, T* dst) {
        const int j0 = jc + q * ks.nr;
        const int cols = std::min(ks.nr, n - j0);
        detail::pack_b_chunk<T>(trans_b == Trans::kYes, b, ldb, pc, j0,
                                kc_eff, cols, ks.nr, dst);
      },
      // One MC-row tile: fold the beta scale into the jc-block's first
      // panel (first-touch, so no pre-scale barrier orders against stolen
      // tiles), pack this tile's A block, run the macro-kernel.
      [&](int jc, int pc, int nc_eff, int kc_eff, bool first_of_jc, int ic,
          int mc_eff, T* a_pack, const T* b_buf) {
        if (first_of_jc) {
          detail::scale_rows_range(c + jc, static_cast<long>(ldc), ic,
                                   ic + mc_eff, nc_eff, beta);
        }
        if (trans_a == Trans::kNo) {
          detail::pack_a<T>(a + static_cast<long>(ic) * lda + pc, lda,
                            mc_eff, kc_eff, ks.mr, a_pack);
        } else {
          detail::pack_a_trans<T>(a + static_cast<long>(pc) * lda + ic, lda,
                                  mc_eff, kc_eff, ks.mr, a_pack);
        }
        detail::macro_kernel<T>(ks, mc_eff, nc_eff, kc_eff, alpha, a_pack,
                                b_buf, c + static_cast<long>(ic) * ldc + jc,
                                ldc);
      });
}

void sgemm(Trans trans_a, Trans trans_b, int m, int n, int k, float alpha,
           const float* a, int lda, const float* b, int ldb, float beta,
           float* c, int ldc, int nthreads) {
  gemm<float>(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
              nthreads);
}

void dgemm(Trans trans_a, Trans trans_b, int m, int n, int k, double alpha,
           const double* a, int lda, const double* b, int ldb, double beta,
           double* c, int ldc, int nthreads) {
  gemm<double>(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
               nthreads);
}

template <typename T>
void reference_gemm(Trans trans_a, Trans trans_b, int m, int n, int k, T alpha,
                    const T* a, int lda, const T* b, int ldb, T beta, T* c,
                    int ldc) {
  validate(trans_a, trans_b, m, n, k, lda, ldb, ldc);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      T acc = T(0);
      for (int p = 0; p < k; ++p) {
        const T av = trans_a == Trans::kNo ? a[i * static_cast<long>(lda) + p]
                                           : a[p * static_cast<long>(lda) + i];
        const T bv = trans_b == Trans::kNo ? b[p * static_cast<long>(ldb) + j]
                                           : b[j * static_cast<long>(ldb) + p];
        acc += av * bv;
      }
      T& out = c[i * static_cast<long>(ldc) + j];
      out = alpha * acc + (beta == T(0) ? T(0) : beta * out);
    }
  }
}

template void gemm<float>(Trans, Trans, int, int, int, float, const float*,
                          int, const float*, int, float, float*, int, int,
                          const GemmTuning&);
template void gemm<double>(Trans, Trans, int, int, int, double, const double*,
                           int, const double*, int, double, double*, int, int,
                           const GemmTuning&);
template void reference_gemm<float>(Trans, Trans, int, int, int, float,
                                    const float*, int, const float*, int,
                                    float, float*, int);
template void reference_gemm<double>(Trans, Trans, int, int, int, double,
                                     const double*, int, const double*, int,
                                     double, double*, int);

}  // namespace adsala::blas
