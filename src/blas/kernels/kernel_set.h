// Runtime-dispatched micro-kernel descriptor.
//
// A KernelSet bundles the register-blocked inner kernels for one scalar type
// together with their MR x NR geometry, plus the tier's TRSM diagonal-block
// solve. The blocked GEMM/SYRK drivers consume whatever geometry the set
// advertises instead of compile-time constants, so swapping an AVX-512 14x32
// kernel for the portable 6x8 one is purely a runtime decision (CPUID probe,
// ADSALA_KERNEL env, or the set_variant() API — see dispatch.h).
#pragma once

namespace adsala::blas::kernels {

/// Which micro-kernel implementation backs a BLAS call.
enum class Variant {
  kAuto,     ///< resolve via ADSALA_KERNEL env, else best the CPU supports
  kGeneric,  ///< portable compiler-vectorised template kernel
  kAvx2,     ///< hand-written AVX2+FMA intrinsics (x86-64 only)
  kAvx512,   ///< hand-written AVX-512F intrinsics (x86-64 only)
};

/// Upper bounds on micro-tile geometry across all variants; edge paths use
/// them to size stack scratch tiles.
inline constexpr int kMaxMr = 14;
inline constexpr int kMaxNr = 32;

template <typename T>
struct KernelSet {
  /// C[0..mr) x [0..nr) += alpha * (packed MR-wide A panel) * (packed
  /// NR-wide B panel); kc is the panel depth, ldc the row stride of C.
  using FullFn = void (*)(int kc, T alpha, const T* a, const T* b, T* c,
                          int ldc);
  /// Fringe variant: same contract but writes back only rows x cols. The
  /// SIMD tiers round each written element exactly as `full` would, so an
  /// element's value does not depend on whether its tile is a fringe.
  using EdgeFn = void (*)(int kc, T alpha, const T* a, const T* b, T* c,
                          int ldc, int rows, int cols);
  /// TRSM diagonal-block solve: rows [j0, j1) of B (row stride ldb) in
  /// place over columns [0, m), forward (row i uses the solved rows j0..i-1)
  /// or backward (rows i+1..j1-1). Element (i, p) of op(A) is
  /// a[i * a_rs + p * a_cs]. Every tier applies the same per-element
  /// operations in the same order — b_i -= f_ip * b_p for p ascending, each
  /// product rounded (no fused multiply-add), then b_i /= a_ii unless
  /// unit_diag — so every tier's output is bit-identical.
  using TrsmSolveFn = void (*)(bool forward, bool unit_diag, int j0, int j1,
                               int m, const T* a, long a_rs, long a_cs, T* b,
                               long ldb);

  int mr = 0;
  int nr = 0;
  /// Preferred cache blocking (BLIS-style per-kernel blocksizes): the MC /
  /// KC / NC a default-constructed GemmTuning resolves to for this set. A
  /// taller or wider micro-tile amortises its C write-back over deeper
  /// panels, so the best blocking is a property of the kernel, not of the
  /// driver.
  int mc = 0;
  int kc = 0;
  int nc = 0;
  const char* name = "";
  FullFn full = nullptr;
  EdgeFn edge = nullptr;
  TrsmSolveFn trsm_solve = nullptr;
};

namespace detail {
/// Variant factories, defined in generic.cpp / avx2.cpp / avx512.cpp.
template <typename T>
KernelSet<T> generic_kernel_set();
KernelSet<float> avx2_kernel_set_f32();
KernelSet<double> avx2_kernel_set_f64();
KernelSet<float> avx512_kernel_set_f32();
KernelSet<double> avx512_kernel_set_f64();

/// Per-tier TRSM diagonal-block solves (TrsmSolveFn), defined for float and
/// double in trsm_solve.cpp. The AVX2 / AVX-512 ones exist on x86 only.
template <typename T>
void generic_trsm_solve(bool forward, bool unit_diag, int j0, int j1, int m,
                        const T* a, long a_rs, long a_cs, T* b, long ldb);
template <typename T>
void avx2_trsm_solve(bool forward, bool unit_diag, int j0, int j1, int m,
                     const T* a, long a_rs, long a_cs, T* b, long ldb);
template <typename T>
void avx512_trsm_solve(bool forward, bool unit_diag, int j0, int j1, int m,
                       const T* a, long a_rs, long a_cs, T* b, long ldb);
}  // namespace detail

}  // namespace adsala::blas::kernels
