#include "blas/trmm.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "blas/kernels/dispatch.h"
#include "blas/level3_common.h"
#include "blas/pack.h"
#include "common/aligned_buffer.h"
#include "common/thread_pool.h"

namespace adsala::blas {

template <typename T>
void trmm(Uplo uplo, Trans trans, Diag diag, int n, int m, T alpha,
          const T* a, int lda, T* b, int ldb, int nthreads,
          const GemmTuning& tuning) {
  if (n < 0 || m < 0) throw std::invalid_argument("trmm: negative dimension");
  if (lda < std::max(1, n) || ldb < std::max(1, m)) {
    throw std::invalid_argument("trmm: leading dimension too small");
  }
  if (n == 0 || m == 0) return;

  const std::size_t p = detail::resolve_threads(nthreads, n);

  if (alpha == T(0)) {
    // Degenerate product: B = 0 (ahead of any tuning resolution, as in
    // every level-3 driver — see level3_common.h).
    detail::scale_rows_pass(p, n, m, T(0), b, static_cast<long>(ldb));
    return;
  }

  // op(A) is effectively lower triangular when the stored triangle and the
  // transpose flag agree (same rule as TRSM).
  const bool lower_eff = (uplo == Uplo::kLower) == (trans == Trans::kNo);

  const kernels::KernelSet<T>& ks = kernels::kernel_set<T>(tuning.variant);
  const detail::BlockGeom g = detail::block_geometry(ks, tuning);

  // In-place product: copy B densely (row stride m) and zero it, then
  // accumulate alpha * op(A) * B_copy into B through the GEMM macro-loop.
  //
  // Every participant reads the dense copy, so it leads the loop's one arena
  // carve (carve_loop_scratch): the shared slab at p > 1, the caller's thread
  // slab at p == 1. Unlike the blocking-bounded pack panels, the copy is
  // O(n * m) of the *input*, and the arena is grow-only for the process
  // lifetime — one huge call must not pin that much scratch forever. Above
  // the threshold the copy falls back to a per-call buffer: the allocation
  // then amortises against O(n^2 * m) of compute, which is exactly when it
  // is cheap. A p == 1 call carves from a *per-thread* slab (and every
  // thread a nested caller runs on can grow one), so its budget is 8x
  // tighter than the single shared slab's — still covering the small/medium
  // repeated shapes the arena exists for.
  constexpr std::size_t kMaxSharedCopyBytes = std::size_t{16} << 20;
  constexpr std::size_t kMaxThreadCopyBytes = kMaxSharedCopyBytes / 8;
  const std::size_t copy_elems = static_cast<std::size_t>(n) * m;
  const bool copy_in_arena =
      copy_elems * sizeof(T) <=
      (p == 1 ? kMaxThreadCopyBytes : kMaxSharedCopyBytes);
  AlignedBuffer<T> copy_fallback;
  if (!copy_in_arena) copy_fallback = AlignedBuffer<T>(copy_elems);
  const auto scratch = detail::carve_loop_scratch<T>(
      p, ks, g, m, copy_in_arena ? copy_elems : 0);
  T* b_copy = copy_in_arena ? scratch.lead : copy_fallback.data();

  ThreadPool::global().parallel_region(
      p, [&](std::size_t tid, std::size_t nt) {
        const int lo = static_cast<int>(tid * static_cast<std::size_t>(n) / nt);
        const int hi =
            static_cast<int>((tid + 1) * static_cast<std::size_t>(n) / nt);
        for (int i = lo; i < hi; ++i) {
          T* src = b + static_cast<long>(i) * ldb;
          std::copy(src, src + m, b_copy + static_cast<long>(i) * m);
          std::fill(src, src + m, T(0));
        }
      });

  // A panels are packed through the triangular expansion (pack_a_tri). The
  // triangle's load skew is absorbed by tile stealing: a participant whose
  // tiles sit outside the panel's triangle extent finishes its skips
  // instantly and steals real work. Every kc panel intersects at least one
  // row tile's extent, so no panel-level skip is needed; TRMM's ~half-GEMM
  // FLOP count comes from the per-tile skip below.
  const bool unit = diag == Diag::kUnit;
  const bool trans_eff = trans == Trans::kYes;
  detail::run_macro_loop<T>(
      p, ks, g, n, m, n, scratch,
      [&](int jc, int pc, int kc_eff, int q, T* dst) {
        const int j0 = jc + q * ks.nr;
        const int cols = std::min(ks.nr, m - j0);
        detail::pack_b<T>(b_copy + static_cast<long>(pc) * m + j0, m, kc_eff,
                          cols, ks.nr, dst);
      },
      [&](int jc, int pc, int nc_eff, int kc_eff, bool /*first_of_jc*/,
          int ic, int mc_eff, T* a_pack, const T* b_buf) {
        // Per-tile triangle skip: this slab contributes only zeros to rows
        // [ic, ic+mc_eff) when it lies outside their triangle extent.
        if (lower_eff ? pc >= ic + mc_eff : pc + kc_eff <= ic) return;
        detail::pack_a_tri<T>(a, lda, trans_eff, lower_eff, unit, ic, pc,
                              mc_eff, kc_eff, ks.mr, a_pack);
        detail::macro_kernel<T>(ks, mc_eff, nc_eff, kc_eff, alpha, a_pack,
                                b_buf, b + static_cast<long>(ic) * ldb + jc,
                                ldb);
      });
}

void strmm(Uplo uplo, Trans trans, Diag diag, int n, int m, float alpha,
           const float* a, int lda, float* b, int ldb, int nthreads) {
  trmm<float>(uplo, trans, diag, n, m, alpha, a, lda, b, ldb, nthreads);
}

void dtrmm(Uplo uplo, Trans trans, Diag diag, int n, int m, double alpha,
           const double* a, int lda, double* b, int ldb, int nthreads) {
  trmm<double>(uplo, trans, diag, n, m, alpha, a, lda, b, ldb, nthreads);
}

template <typename T>
void reference_trmm(Uplo uplo, Trans trans, Diag diag, int n, int m, T alpha,
                    const T* a, int lda, T* b, int ldb) {
  const bool lower_eff = (uplo == Uplo::kLower) == (trans == Trans::kNo);
  std::vector<T> copy(static_cast<std::size_t>(n) * m);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      copy[static_cast<std::size_t>(i) * m + j] =
          b[static_cast<long>(i) * ldb + j];
    }
  }
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      T acc = T(0);
      for (int p = 0; p < n; ++p) {
        if (lower_eff ? p > i : p < i) continue;
        T aip;
        if (p == i && diag == Diag::kUnit) {
          aip = T(1);
        } else {
          aip = trans == Trans::kYes ? a[static_cast<long>(p) * lda + i]
                                     : a[static_cast<long>(i) * lda + p];
        }
        acc += aip * copy[static_cast<std::size_t>(p) * m + j];
      }
      b[static_cast<long>(i) * ldb + j] = alpha * acc;
    }
  }
}

template void trmm<float>(Uplo, Trans, Diag, int, int, float, const float*,
                          int, float*, int, int, const GemmTuning&);
template void trmm<double>(Uplo, Trans, Diag, int, int, double, const double*,
                           int, double*, int, int, const GemmTuning&);
template void reference_trmm<float>(Uplo, Trans, Diag, int, int, float,
                                    const float*, int, float*, int);
template void reference_trmm<double>(Uplo, Trans, Diag, int, int, double,
                                     const double*, int, double*, int);

}  // namespace adsala::blas
