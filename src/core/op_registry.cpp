// The one translation unit that knows every operation end to end. Each
// kOpTraits row bundles: shape canonicalisation, domain sampler, analytic
// cost model, and the native timing closure. This file (plus the blas/op.h
// name table and the op's own kernel file) is the complete footprint of an
// operation — every other layer iterates or looks up the registry.
#include "core/op_registry.h"

#include <algorithm>
#include <stdexcept>

#include "blas/gemm.h"
#include "blas/symm.h"
#include "blas/syrk.h"
#include "blas/trmm.h"
#include "blas/trsm.h"
#include "common/aligned_buffer.h"
#include "common/rng.h"
#include "common/timer.h"

namespace adsala::core {

namespace {

// ------------------------------------------------- shape canonicalisation --
// Stored-shape conventions of docs/OPERATIONS.md: the redundant dimension is
// the family marker (m == n: syrk family; m == k: triangular/symmetric).

simarch::GemmShape gemm_to_shape(long m, long k, long n, int elem_bytes) {
  return {m, k, n, elem_bytes};
}
void gemm_from_shape(const simarch::GemmShape& s, long* m, long* k, long* n) {
  *m = s.m;
  *k = s.k;
  *n = s.n;
}

simarch::GemmShape syrk_to_shape(long n, long k, long, int elem_bytes) {
  return {n, k, n, elem_bytes};
}
void syrk_from_shape(const simarch::GemmShape& s, long* n, long* k, long*) {
  *n = s.n;
  *k = s.k;
}

simarch::GemmShape tri_to_shape(long n, long m, long, int elem_bytes) {
  return {n, n, m, elem_bytes};
}
void tri_from_shape(const simarch::GemmShape& s, long* n, long* m, long*) {
  *n = s.m;
  *m = s.n;
}

// ---------------------------------------------------------------- domains --
// GEMM samples the full (m, k, n) cube; every other family is a
// Family2DSpec: its stored-shape marker, its true operand footprint, and a
// rotation salt of its own (a mixed campaign must never probe two ops on
// identical diagonals). The `who` strings prefix the sampler's errors.

std::unique_ptr<sampling::DomainSampler> make_gemm_sampler(
    const sampling::DomainConfig& config) {
  return std::make_unique<sampling::GemmDomainSampler>(config);
}

template <const sampling::Family2DSpec& Spec>
std::unique_ptr<sampling::DomainSampler> make_family_sampler(
    const sampling::DomainConfig& config) {
  return std::make_unique<sampling::Family2DSampler>(Spec, config);
}

/// Footprint in elements of n x n A plus `dense_nm` n x m operands, on the
/// m == k stored shape (n = shape.m, m = shape.n).
template <int dense_nm>
double tri_footprint(const simarch::GemmShape& s) {
  return static_cast<double>(s.elem_bytes) *
         (static_cast<double>(s.m) * s.m +
          dense_nm * static_cast<double>(s.m) * s.n);
}

/// SYRK: A n x k and C n x n, on the m == n stored shape.
double syrk_footprint(const simarch::GemmShape& s) {
  return static_cast<double>(s.elem_bytes) *
         (static_cast<double>(s.n) * s.k + static_cast<double>(s.n) * s.n);
}

constexpr sampling::Family2DSpec kSyrkDomain{
    "SyrkDomainSampler", 0x5a9c0d17ull, /*m_equals_n=*/true, &syrk_footprint};
/// TRSM: A triangle + B right-hand sides.
constexpr sampling::Family2DSpec kTrsmDomain{
    "TrsmDomainSampler", 0x7c31e8a5ull, /*m_equals_n=*/false,
    &tri_footprint<1>};
/// SYMM: A symmetric + B and C.
constexpr sampling::Family2DSpec kSymmDomain{
    "SymmDomainSampler", 0x19f4b26dull, /*m_equals_n=*/false,
    &tri_footprint<2>};
/// TRMM: A triangle + B + the in-place product's dense B workspace.
constexpr sampling::Family2DSpec kTrmmDomain{
    "TrmmDomainSampler", 0x3e8d5b71ull, /*m_equals_n=*/false,
    &tri_footprint<2>};

// ---------------------------------------------------- native measurement --
// Every native closure is one row function on a shared harness (paper
// SS V-B.3): 64-byte aligned operands whose A and B are filled, in that
// order, with uniform(-1, 1) draws from one Rng seeded by the row's family
// coordinates and whose C starts at zero; one warm-up call, then the mean of
// `iterations` timed calls. A row gives only its operand sizes, its
// conditioning and its call.

template <typename T>
struct Operands {
  /// `a_spread` divides A's draws (1 keeps them in (-1, 1)); a size of 0
  /// leaves that operand absent.
  Operands(int x, int y, int z, std::size_t a_size, std::size_t b_size,
           std::size_t c_size, double a_spread = 1.0)
      : a(a_size), b(b_size), c(c_size) {
    Rng rng(0x5eedu + static_cast<std::uint64_t>(x * 131 + y * 17 + z));
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = static_cast<T>(rng.uniform(-1.0, 1.0) / a_spread);
    }
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = static_cast<T>(rng.uniform(-1.0, 1.0));
    }
    for (std::size_t i = 0; i < c.size(); ++i) c[i] = T(0);
  }

  /// Sets the diagonal of the n x n A.
  void set_a_diagonal(int n, T value) {
    for (int i = 0; i < n; ++i) a[static_cast<std::size_t>(i) * n + i] = value;
  }

  AlignedBuffer<T> a, b, c;
};

std::size_t area(int rows, int cols) {
  return static_cast<std::size_t>(rows) * cols;
}

/// One warm-up call (pulls operands into cache state comparable across runs
/// and wakes the pool threads), then the mean of `iterations` timed calls.
template <typename Call>
double time_calls(int iterations, const Call& call) {
  call();
  WallTimer timer;
  for (int it = 0; it < iterations; ++it) call();
  return timer.seconds() / std::max(iterations, 1);
}

template <typename T>
double gemm_native(const simarch::GemmShape& s, int nthreads, int iterations) {
  const auto m = static_cast<int>(s.m);
  const auto k = static_cast<int>(s.k);
  const auto n = static_cast<int>(s.n);
  Operands<T> o(m, k, n, area(m, k), area(k, n), area(m, n));
  return time_calls(iterations, [&] {
    blas::gemm<T>(blas::Trans::kNo, blas::Trans::kNo, m, n, k, T(1),
                  o.a.data(), k, o.b.data(), n, T(0), o.c.data(), n, nthreads);
  });
}

template <typename T>
double syrk_native(const simarch::GemmShape& s, int nthreads, int iterations) {
  const auto n = static_cast<int>(s.n);
  const auto k = static_cast<int>(s.k);
  Operands<T> o(n, k, 0, area(n, k), 0, area(n, n));
  return time_calls(iterations, [&] {
    blas::syrk<T>(blas::Uplo::kLower, blas::Trans::kNo, n, k, T(1),
                  o.a.data(), k, T(0), o.c.data(), n, nthreads);
  });
}

template <typename T>
double trsm_native(const simarch::GemmShape& s, int nthreads, int iterations) {
  const auto n = static_cast<int>(s.m);  // triangle dimension (m == k)
  const auto r = static_cast<int>(s.n);  // right-hand-side columns
  Operands<T> o(n, r, 0, area(n, n), area(n, r), 0);
  // Diagonally dominant triangle: repeated in-place solves stay bounded
  // (||inv(A)|| < 1), so the timed iterations never drift into inf/denormal
  // territory.
  o.set_a_diagonal(n, T(n + 1));
  return time_calls(iterations, [&] {
    blas::trsm<T>(blas::Uplo::kLower, blas::Trans::kNo, blas::Diag::kNonUnit,
                  n, r, T(1), o.a.data(), n, o.b.data(), r, nthreads);
  });
}

template <typename T>
double symm_native(const simarch::GemmShape& s, int nthreads, int iterations) {
  const auto n = static_cast<int>(s.m);  // symmetric dimension (m == k)
  const auto r = static_cast<int>(s.n);  // B/C columns
  Operands<T> o(n, r, 0, area(n, n), area(n, r), area(n, r));
  return time_calls(iterations, [&] {
    blas::symm<T>(blas::Uplo::kLower, n, r, T(1), o.a.data(), n, o.b.data(),
                  r, T(0), o.c.data(), r, nthreads);
  });
}

template <typename T>
double trmm_native(const simarch::GemmShape& s, int nthreads, int iterations) {
  const auto n = static_cast<int>(s.m);  // triangle dimension (m == k)
  const auto r = static_cast<int>(s.n);  // B columns
  // Contraction (||A|| < 1): entries within 1/(2n), diagonal 0.9, so
  // repeated in-place products decay gently instead of overflowing and the
  // timed iterations stay in normal-number range.
  Operands<T> o(n, r, 0, area(n, n), area(n, r), 0, 2.0 * n);
  o.set_a_diagonal(n, T(0.9));
  return time_calls(iterations, [&] {
    blas::trmm<T>(blas::Uplo::kLower, blas::Trans::kNo, blas::Diag::kNonUnit,
                  n, r, T(1), o.a.data(), n, o.b.data(), r, nthreads);
  });
}

/// fp32/fp64 split shared by every native closure.
template <double (*F32)(const simarch::GemmShape&, int, int),
          double (*F64)(const simarch::GemmShape&, int, int)>
double by_elem(const simarch::GemmShape& shape, int nthreads, int iterations) {
  return shape.elem_bytes == 8 ? F64(shape, nthreads, iterations)
                               : F32(shape, nthreads, iterations);
}

// ---------------------------------------------------------------- the table --
// Each cost model says why the op's optimum differs from GEMM's; its noise
// salt (an ASCII tag of the op's name) decorrelates its measurement noise.

constexpr OpTraits kOpTraits[] = {
    {
        .op = blas::OpKind::kGemm,
        .family_dims = 3,
        .coord_names = {"m", "k", "n"},
        .to_shape = &gemm_to_shape,
        .from_shape = &gemm_from_shape,
        .make_sampler = &make_gemm_sampler,
        .cost = {},
        .measure_native = &by_elem<&gemm_native<float>, &gemm_native<double>>,
    },
    {
        // SYRK shares GEMM's packing, barrier and spawn structure (A is
        // packed into both panel roles), but only the triangle's
        // micro-tiles execute.
        .op = blas::OpKind::kSyrk,
        .family_dims = 2,
        .coord_names = {"n", "k", nullptr},
        .to_shape = &syrk_to_shape,
        .from_shape = &syrk_from_shape,
        .make_sampler = &make_family_sampler<kSyrkDomain>,
        .cost = {.triangle_kernel = true, .noise_salt = 0x53595246ull},
        .measure_native = &by_elem<&syrk_native<float>, &syrk_native<double>>,
    },
    {
        // TRSM: the trailing updates are triangle-fraction GEMMs, but the
        // diagonal-block solves form a sequential chain at single-thread
        // rate and add a barrier sweep per panel (sync doubles). Both push
        // the optimum below GEMM's.
        .op = blas::OpKind::kTrsm,
        .family_dims = 2,
        .coord_names = {"n", "m", nullptr},
        .to_shape = &tri_to_shape,
        .from_shape = &tri_from_shape,
        .make_sampler = &make_family_sampler<kTrsmDomain>,
        .cost = {.triangle_kernel = true,
                 .serial_diag_chain = true,
                 .sync_mult = 2.0,
                 .noise_salt = 0x5452534dull},
        .measure_native = &by_elem<&trsm_native<float>, &trsm_native<double>>,
    },
    {
        // SYMM: GEMM's FLOPs, but the mirrored half of every packed A block
        // is a strided transposed read out of the stored triangle.
        .op = blas::OpKind::kSymm,
        .family_dims = 2,
        .coord_names = {"n", "m", nullptr},
        .to_shape = &tri_to_shape,
        .from_shape = &tri_from_shape,
        .make_sampler = &make_family_sampler<kSymmDomain>,
        .cost = {.copy_mult = 1.3, .noise_salt = 0x53594d4dull},
        .measure_native = &by_elem<&symm_native<float>, &symm_native<double>>,
    },
    {
        // TRMM: triangle-fraction kernel work like SYRK/TRSM, plus a
        // packing surcharge for the dense B pre-copy the in-place product
        // needs (between GEMM's 1.0 and SYMM's 1.3).
        .op = blas::OpKind::kTrmm,
        .family_dims = 2,
        .coord_names = {"n", "m", nullptr},
        .to_shape = &tri_to_shape,
        .from_shape = &tri_from_shape,
        .make_sampler = &make_family_sampler<kTrmmDomain>,
        .cost = {.triangle_kernel = true,
                 .copy_mult = 1.2,
                 .noise_salt = 0x54524d4dull},
        .measure_native = &by_elem<&trmm_native<float>, &trmm_native<double>>,
    },
};

/// Registry completeness, checked at compile time: one traits row per
/// blas/op.h table row, in code order.
static_assert(std::size(kOpTraits) == blas::kNumOps,
              "every blas/op.h row needs an OpTraits row");
static_assert([] {
  for (std::size_t i = 0; i < blas::kNumOps; ++i) {
    if (kOpTraits[i].op != blas::detail::kOpTable[i].op) return false;
  }
  return true;
}(), "OpTraits rows must follow blas/op.h table (code) order");

}  // namespace

const OpTraits& op_traits(blas::OpKind op) {
  const int code = blas::op_code(op);
  if (code < 0 || static_cast<std::size_t>(code) >= std::size(kOpTraits)) {
    throw std::logic_error("op_traits: unregistered operation");
  }
  return kOpTraits[code];
}

std::span<const OpTraits> op_registry() { return kOpTraits; }

}  // namespace adsala::core
