// Portable fallback KernelSet: the compiler-vectorised template micro-kernel
// at the historical 6x8 geometry. Always available; the dispatcher uses it
// whenever no ISA-specific set applies (or ADSALA_KERNEL=generic forces it).
#include "blas/kernels/kernel_set.h"
#include "blas/microkernel.h"

namespace adsala::blas::kernels::detail {

namespace {

inline constexpr int kGenericMr = 6;
inline constexpr int kGenericNr = 8;

template <typename T>
void generic_full(int kc, T alpha, const T* a, const T* b, T* c, int ldc) {
  blas::detail::microkernel_full<T, kGenericMr, kGenericNr>(kc, alpha, a, b, c,
                                                            ldc);
}

template <typename T>
void generic_edge(int kc, T alpha, const T* a, const T* b, T* c, int ldc,
                  int rows, int cols) {
  blas::detail::microkernel_edge<T, kGenericMr, kGenericNr>(kc, alpha, a, b, c,
                                                            ldc, rows, cols);
}

}  // namespace

template <typename T>
KernelSet<T> generic_kernel_set() {
  KernelSet<T> set;
  set.mr = kGenericMr;
  set.nr = kGenericNr;
  // The historical project-wide defaults (~32 KB L1 / ~512 KB L2 targets).
  set.mc = 120;
  set.kc = 256;
  set.nc = 2048;
  set.name = "generic";
  set.full = &generic_full<T>;
  set.edge = &generic_edge<T>;
  set.trsm_solve = &generic_trsm_solve<T>;
  return set;
}

template KernelSet<float> generic_kernel_set<float>();
template KernelSet<double> generic_kernel_set<double>();

}  // namespace adsala::blas::kernels::detail
