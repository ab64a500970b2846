#include "blas/symm.h"

#include <algorithm>
#include <stdexcept>

#include "blas/kernels/dispatch.h"
#include "blas/level3_common.h"
#include "blas/pack.h"

namespace adsala::blas {

template <typename T>
void symm(Uplo uplo, int n, int m, T alpha, const T* a, int lda, const T* b,
          int ldb, T beta, T* c, int ldc, int nthreads,
          const GemmTuning& tuning) {
  if (n < 0 || m < 0) throw std::invalid_argument("symm: negative dimension");
  if (lda < std::max(1, n) || ldb < std::max(1, m) || ldc < std::max(1, m)) {
    throw std::invalid_argument("symm: leading dimension too small");
  }
  if (n == 0 || m == 0) return;

  const std::size_t p = detail::resolve_threads(nthreads, n);

  if (alpha == T(0)) {
    // Degenerate product: C *= beta (ahead of any tuning resolution, as in
    // every level-3 driver — see level3_common.h).
    detail::scale_rows_pass(p, n, m, beta, c, static_cast<long>(ldc));
    return;
  }

  const kernels::KernelSet<T>& ks = kernels::kernel_set<T>(tuning.variant);
  const detail::BlockGeom g = detail::block_geometry(ks, tuning);

  // The GEMM macro-loop (see blas/pack_pipeline.h) with A panels packed
  // through the symmetric expansion (pack_a_sym) and B packed straight.
  const bool lower = uplo == Uplo::kLower;
  const auto scratch = detail::carve_loop_scratch<T>(p, ks, g, m);
  detail::run_macro_loop<T>(
      p, ks, g, n, m, n, scratch,
      [&](int jc, int pc, int kc_eff, int q, T* dst) {
        const int j0 = jc + q * ks.nr;
        const int cols = std::min(ks.nr, m - j0);
        detail::pack_b<T>(b + static_cast<long>(pc) * ldb + j0, ldb, kc_eff,
                          cols, ks.nr, dst);
      },
      [&](int jc, int pc, int nc_eff, int kc_eff, bool first_of_jc, int ic,
          int mc_eff, T* a_pack, const T* b_buf) {
        if (first_of_jc) {
          detail::scale_rows_range(c + jc, static_cast<long>(ldc), ic,
                                   ic + mc_eff, nc_eff, beta);
        }
        detail::pack_a_sym<T>(a, lda, lower, ic, pc, mc_eff, kc_eff, ks.mr,
                              a_pack);
        detail::macro_kernel<T>(ks, mc_eff, nc_eff, kc_eff, alpha, a_pack,
                                b_buf, c + static_cast<long>(ic) * ldc + jc,
                                ldc);
      });
}

void ssymm(Uplo uplo, int n, int m, float alpha, const float* a, int lda,
           const float* b, int ldb, float beta, float* c, int ldc,
           int nthreads) {
  symm<float>(uplo, n, m, alpha, a, lda, b, ldb, beta, c, ldc, nthreads);
}

void dsymm(Uplo uplo, int n, int m, double alpha, const double* a, int lda,
           const double* b, int ldb, double beta, double* c, int ldc,
           int nthreads) {
  symm<double>(uplo, n, m, alpha, a, lda, b, ldb, beta, c, ldc, nthreads);
}

template <typename T>
void reference_symm(Uplo uplo, int n, int m, T alpha, const T* a, int lda,
                    const T* b, int ldb, T beta, T* c, int ldc) {
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      T acc = T(0);
      for (int p = 0; p < n; ++p) {
        const bool stored = uplo == Uplo::kLower ? p <= i : p >= i;
        const T aip = stored ? a[static_cast<long>(i) * lda + p]
                             : a[static_cast<long>(p) * lda + i];
        acc += aip * b[static_cast<long>(p) * ldb + j];
      }
      T& out = c[static_cast<long>(i) * ldc + j];
      out = alpha * acc + (beta == T(0) ? T(0) : beta * out);
    }
  }
}

template void symm<float>(Uplo, int, int, float, const float*, int,
                          const float*, int, float, float*, int, int,
                          const GemmTuning&);
template void symm<double>(Uplo, int, int, double, const double*, int,
                           const double*, int, double, double*, int, int,
                           const GemmTuning&);
template void reference_symm<float>(Uplo, int, int, float, const float*, int,
                                    const float*, int, float, float*, int);
template void reference_symm<double>(Uplo, int, int, double, const double*,
                                     int, const double*, int, double, double*,
                                     int);

}  // namespace adsala::blas
