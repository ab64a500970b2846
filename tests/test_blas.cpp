// Correctness tests for the from-scratch blocked multi-threaded GEMM,
// verified element-wise against the naive reference implementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "blas/gemm.h"
#include "blas/kernels/dispatch.h"
#include "blas/level3_common.h"
#include "blas/op.h"
#include "blas/symm.h"
#include "blas/syrk.h"
#include "blas/trmm.h"
#include "blas/trsm.h"
#include "common/pack_arena.h"
#include "common/rng.h"

namespace adsala::blas {
namespace {

template <typename T>
std::vector<T> random_matrix(std::size_t rows, std::size_t cols,
                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> out(rows * cols);
  for (auto& v : out) v = static_cast<T>(rng.uniform(-2.0, 2.0));
  return out;
}

template <typename T>
void expect_gemm_matches_reference(Trans ta, Trans tb, int m, int n, int k,
                                   T alpha, T beta, int nthreads,
                                   const GemmTuning& tuning = {}) {
  const int a_rows = ta == Trans::kNo ? m : k;
  const int a_cols = ta == Trans::kNo ? k : m;
  const int b_rows = tb == Trans::kNo ? k : n;
  const int b_cols = tb == Trans::kNo ? n : k;
  const int lda = std::max(1, a_cols);  // k = 0 still needs a valid stride
  const int ldb = std::max(1, b_cols);
  const auto a = random_matrix<T>(std::max(1, a_rows), lda, 1);
  const auto b = random_matrix<T>(std::max(1, b_rows), ldb, 2);
  auto c = random_matrix<T>(m, n, 3);
  auto c_ref = c;

  gemm<T>(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta,
          c.data(), n, nthreads, tuning);
  reference_gemm<T>(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb,
                    beta, c_ref.data(), n);

  // Tolerance scales with the k-dimension reduction length.
  const double tol =
      (std::is_same_v<T, float> ? 1e-4 : 1e-11) * std::max(1, k);
  for (int i = 0; i < m * n; ++i) {
    ASSERT_NEAR(static_cast<double>(c[i]), static_cast<double>(c_ref[i]), tol)
        << "mismatch at linear index " << i << " (m=" << m << " n=" << n
        << " k=" << k << ")";
  }
}

TEST(Gemm, TinyExactValues) {
  // 2x2 hand-checked product.
  const float a[] = {1, 2, 3, 4};
  const float b[] = {5, 6, 7, 8};
  float c[] = {0, 0, 0, 0};
  sgemm(Trans::kNo, Trans::kNo, 2, 2, 2, 1.0f, a, 2, b, 2, 0.0f, c, 2, 1);
  EXPECT_FLOAT_EQ(c[0], 19.0f);
  EXPECT_FLOAT_EQ(c[1], 22.0f);
  EXPECT_FLOAT_EQ(c[2], 43.0f);
  EXPECT_FLOAT_EQ(c[3], 50.0f);
}

TEST(Gemm, BetaScalesExistingC) {
  const float a[] = {1};
  const float b[] = {1};
  float c[] = {10};
  sgemm(Trans::kNo, Trans::kNo, 1, 1, 1, 2.0f, a, 1, b, 1, 0.5f, c, 1, 1);
  EXPECT_FLOAT_EQ(c[0], 7.0f);  // 2*1*1 + 0.5*10
}

TEST(Gemm, BetaZeroOverwritesNaN) {
  const float a[] = {1};
  const float b[] = {1};
  float c[] = {std::nanf("")};
  sgemm(Trans::kNo, Trans::kNo, 1, 1, 1, 1.0f, a, 1, b, 1, 0.0f, c, 1, 1);
  EXPECT_FLOAT_EQ(c[0], 1.0f);
}

TEST(Gemm, AlphaZeroSkipsProduct) {
  const float a[] = {1, 2};  // would read garbage dims if not skipped
  const float b[] = {3, 4};
  float c[] = {5};
  sgemm(Trans::kNo, Trans::kNo, 1, 1, 2, 0.0f, a, 2, b, 1, 2.0f, c, 1, 4);
  EXPECT_FLOAT_EQ(c[0], 10.0f);
}

TEST(Gemm, KZeroIsBetaPass) {
  float c[] = {3, 4};
  sgemm(Trans::kNo, Trans::kNo, 1, 2, 0, 1.0f, nullptr, 1, nullptr, 2, 2.0f,
        c, 2, 2);
  EXPECT_FLOAT_EQ(c[0], 6.0f);
  EXPECT_FLOAT_EQ(c[1], 8.0f);
}

TEST(Gemm, EmptyOutputReturns) {
  EXPECT_NO_THROW(sgemm(Trans::kNo, Trans::kNo, 0, 0, 5, 1.0f, nullptr, 5,
                        nullptr, 1, 0.0f, nullptr, 1, 2));
}

TEST(Gemm, NegativeDimensionThrows) {
  EXPECT_THROW(sgemm(Trans::kNo, Trans::kNo, -1, 1, 1, 1.0f, nullptr, 1,
                     nullptr, 1, 0.0f, nullptr, 1, 1),
               std::invalid_argument);
}

TEST(Gemm, BadLeadingDimensionThrows) {
  float x[4] = {};
  EXPECT_THROW(sgemm(Trans::kNo, Trans::kNo, 2, 2, 2, 1.0f, x, 1, x, 2, 0.0f,
                     x, 2, 1),
               std::invalid_argument);
}

TEST(Gemm, TransposeAFloat) {
  expect_gemm_matches_reference<float>(Trans::kYes, Trans::kNo, 17, 23, 9,
                                       1.0f, 0.0f, 2);
}

TEST(Gemm, TransposeBFloat) {
  expect_gemm_matches_reference<float>(Trans::kNo, Trans::kYes, 17, 23, 9,
                                       1.5f, 0.5f, 2);
}

TEST(Gemm, TransposeBothDouble) {
  expect_gemm_matches_reference<double>(Trans::kYes, Trans::kYes, 31, 13, 27,
                                        -0.5, 2.0, 3);
}

TEST(Gemm, StridedOutput) {
  // ldc > n: C is a sub-block of a wider array; padding must be untouched.
  const int m = 5, n = 4, k = 3, ldc = 7;
  const auto a = random_matrix<float>(m, k, 10);
  const auto b = random_matrix<float>(k, n, 11);
  std::vector<float> c(m * ldc, -99.0f);
  auto c_ref = c;
  gemm<float>(Trans::kNo, Trans::kNo, m, n, k, 1.0f, a.data(), k, b.data(), n,
              0.0f, c.data(), ldc, 2);
  reference_gemm<float>(Trans::kNo, Trans::kNo, m, n, k, 1.0f, a.data(), k,
                        b.data(), n, 0.0f, c_ref.data(), ldc);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < ldc; ++j) {
      if (j >= n) {
        EXPECT_FLOAT_EQ(c[i * ldc + j], -99.0f) << "padding overwritten";
      } else {
        EXPECT_NEAR(c[i * ldc + j], c_ref[i * ldc + j], 1e-4);
      }
    }
  }
}

TEST(Gemm, SmallBlockingParametersExerciseAllFringes) {
  GemmTuning tuning;
  tuning.mc = 12;   // two MR panels
  tuning.kc = 5;
  tuning.nc = 16;   // two NR panels
  expect_gemm_matches_reference<float>(Trans::kNo, Trans::kNo, 37, 29, 23,
                                       1.0f, 1.0f, 3, tuning);
  expect_gemm_matches_reference<double>(Trans::kNo, Trans::kNo, 37, 29, 23,
                                        1.0, -1.0, 3, tuning);
}

// Property suite: correctness over a shape grid x thread counts.
using ShapeParam = std::tuple<int, int, int, int>;  // m, n, k, threads

class GemmShapeTest : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(GemmShapeTest, FloatMatchesReference) {
  const auto [m, n, k, threads] = GetParam();
  expect_gemm_matches_reference<float>(Trans::kNo, Trans::kNo, m, n, k, 1.0f,
                                       0.0f, threads);
}

TEST_P(GemmShapeTest, DoubleMatchesReferenceWithBeta) {
  const auto [m, n, k, threads] = GetParam();
  expect_gemm_matches_reference<double>(Trans::kNo, Trans::kNo, m, n, k, 1.25,
                                        0.75, threads);
}

INSTANTIATE_TEST_SUITE_P(
    ShapeGrid, GemmShapeTest,
    ::testing::Values(
        ShapeParam{1, 1, 1, 1}, ShapeParam{1, 64, 64, 2},
        ShapeParam{64, 1, 64, 2}, ShapeParam{64, 64, 1, 2},
        ShapeParam{5, 7, 11, 1}, ShapeParam{6, 8, 16, 2},   // exact tiles
        ShapeParam{7, 9, 17, 2},                            // fringe tiles
        ShapeParam{48, 48, 48, 4}, ShapeParam{129, 65, 33, 4},
        ShapeParam{200, 100, 300, 8}, ShapeParam{64, 2048, 64, 4},
        ShapeParam{256, 256, 256, 8}, ShapeParam{250, 130, 260, 16},
        ShapeParam{33, 257, 129, 24}));

// Thread-count invariance: the result must not depend on parallelism.
class GemmThreadInvariance : public ::testing::TestWithParam<int> {};

TEST_P(GemmThreadInvariance, SameResultAsSingleThread) {
  const int threads = GetParam();
  const int m = 93, n = 71, k = 55;
  const auto a = random_matrix<float>(m, k, 5);
  const auto b = random_matrix<float>(k, n, 6);
  std::vector<float> c1(m * n, 0.0f), cp(m * n, 0.0f);
  gemm<float>(Trans::kNo, Trans::kNo, m, n, k, 1.0f, a.data(), k, b.data(), n,
              0.0f, c1.data(), n, 1);
  gemm<float>(Trans::kNo, Trans::kNo, m, n, k, 1.0f, a.data(), k, b.data(), n,
              0.0f, cp.data(), n, threads);
  for (int i = 0; i < m * n; ++i) {
    // Identical split of the k loop => bitwise equal accumulation per block;
    // but packing order differs across threads only in m/n, not k, so the
    // float sums are in the same order. Allow tiny tolerance regardless.
    ASSERT_NEAR(c1[i], cp[i], 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, GemmThreadInvariance,
                         ::testing::Values(2, 3, 4, 7, 8, 16, 23));

// ------------------------------------------------------- kernel variants --
// Every dispatched kernel variant must agree with the naive reference on
// fringe shapes (dimensions not multiples of MR/NR), degenerate products
// (k=0, alpha=0), and the beta in {0, 1, 2} write-back modes — for GEMM and
// SYRK alike. On non-AVX2 hosts the sweep degrades to generic only.

class KernelVariantTest
    : public ::testing::TestWithParam<kernels::Variant> {};

TEST_P(KernelVariantTest, GeometryIsConsistent) {
  const auto v = GetParam();
  const auto& f32 = kernels::kernel_set<float>(v);
  const auto& f64 = kernels::kernel_set<double>(v);
  EXPECT_GT(f32.mr, 0);
  EXPECT_GT(f32.nr, 0);
  EXPECT_LE(f32.mr, kernels::kMaxMr);
  EXPECT_LE(f32.nr, kernels::kMaxNr);
  EXPECT_LE(f64.mr, kernels::kMaxMr);
  EXPECT_LE(f64.nr, kernels::kMaxNr);
  EXPECT_STREQ(f32.name, kernels::variant_name(v));
  EXPECT_STREQ(f64.name, kernels::variant_name(v));
}

TEST_P(KernelVariantTest, GemmFringeShapesFloat) {
  GemmTuning tuning;
  tuning.variant = GetParam();
  for (const auto [m, n, k] : {std::tuple{1, 1, 3}, std::tuple{7, 9, 17},
                               std::tuple{13, 31, 5}, std::tuple{29, 47, 23},
                               std::tuple{65, 19, 37}}) {
    for (const float beta : {0.0f, 1.0f, 2.0f}) {
      expect_gemm_matches_reference<float>(Trans::kNo, Trans::kNo, m, n, k,
                                           1.25f, beta, 3, tuning);
    }
  }
}

TEST_P(KernelVariantTest, GemmFringeShapesDouble) {
  GemmTuning tuning;
  tuning.variant = GetParam();
  for (const auto [m, n, k] : {std::tuple{1, 1, 3}, std::tuple{7, 9, 17},
                               std::tuple{13, 31, 5}, std::tuple{29, 47, 23},
                               std::tuple{65, 19, 37}}) {
    for (const double beta : {0.0, 1.0, 2.0}) {
      expect_gemm_matches_reference<double>(Trans::kNo, Trans::kNo, m, n, k,
                                            -0.75, beta, 3, tuning);
    }
  }
}

TEST_P(KernelVariantTest, GemmTransposedFringe) {
  GemmTuning tuning;
  tuning.variant = GetParam();
  expect_gemm_matches_reference<float>(Trans::kYes, Trans::kNo, 19, 21, 11,
                                       1.0f, 1.0f, 2, tuning);
  expect_gemm_matches_reference<float>(Trans::kNo, Trans::kYes, 19, 21, 11,
                                       1.0f, 2.0f, 2, tuning);
  expect_gemm_matches_reference<double>(Trans::kYes, Trans::kYes, 19, 21, 11,
                                        0.5, 1.0, 2, tuning);
}

TEST_P(KernelVariantTest, GemmDegenerateProducts) {
  GemmTuning tuning;
  tuning.variant = GetParam();
  // k = 0 and alpha = 0 reduce to the beta pass.
  expect_gemm_matches_reference<float>(Trans::kNo, Trans::kNo, 9, 13, 0, 1.0f,
                                       2.0f, 2, tuning);
  expect_gemm_matches_reference<float>(Trans::kNo, Trans::kNo, 9, 13, 7, 0.0f,
                                       0.5f, 2, tuning);
  expect_gemm_matches_reference<double>(Trans::kNo, Trans::kNo, 9, 13, 0, 1.0,
                                        0.0, 2, tuning);
  expect_gemm_matches_reference<double>(Trans::kNo, Trans::kNo, 9, 13, 7, 0.0,
                                        1.0, 2, tuning);
}

// ------------------------------------------------ exact FMA-order model --
// The SIMD tiers fix one rounding sequence per C element, wherever the
// element sits in the tile grid: C is scaled by beta once (skipped when
// beta == 1), then each kc block accumulates from zero with one fused
// multiply-add per k, ascending, and folds into C with one fused
// alpha * acc + c. The scalar std::fma model below follows that order, so
// every element must match it bit for bit, full tiles and fringes alike.

template <typename T>
std::vector<T> fma_order_model(Trans ta, Trans tb, int m, int n, int k,
                               T alpha, const std::vector<T>& a, int lda,
                               const std::vector<T>& b, int ldb, T beta,
                               std::vector<T> c, int kc) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      T& out = c[static_cast<std::size_t>(i) * n + j];
      if (beta == T(0)) {
        out = T(0);
      } else if (beta != T(1)) {
        out *= beta;
      }
      for (int pc = 0; pc < k; pc += kc) {
        T acc = T(0);
        for (int p = pc; p < std::min(k, pc + kc); ++p) {
          const T av = ta == Trans::kNo ? a[i * static_cast<long>(lda) + p]
                                        : a[p * static_cast<long>(lda) + i];
          const T bv = tb == Trans::kNo ? b[p * static_cast<long>(ldb) + j]
                                        : b[j * static_cast<long>(ldb) + p];
          acc = std::fma(av, bv, acc);
        }
        out = std::fma(alpha, acc, out);
      }
    }
  }
  return c;
}

template <typename T>
void expect_gemm_matches_fma_order_model(kernels::Variant variant) {
  const auto& ks = kernels::kernel_set<T>(variant);
  GemmTuning tuning;
  tuning.variant = variant;
  // Ragged in m and n (full tiles plus the widest fringe), k crossing kc with
  // every k mod 4 (the kernels unroll the k loop x4), and a k below the
  // unroll width.
  const int m = 2 * ks.mr + 3;
  const int n = 3 * ks.nr - 1;
  const T alpha = T(0.7);
  const T beta = T(1.3);
  for (const int k : {3, ks.kc + 1, ks.kc + 6, ks.kc + 11, 2 * ks.kc + 4}) {
    for (const Trans ta : {Trans::kNo, Trans::kYes}) {
      for (const Trans tb : {Trans::kNo, Trans::kYes}) {
        const int lda = ta == Trans::kNo ? k : m;
        const int ldb = tb == Trans::kNo ? n : k;
        const auto a = random_matrix<T>(ta == Trans::kNo ? m : k, lda, 41);
        const auto b = random_matrix<T>(tb == Trans::kNo ? k : n, ldb, 42);
        const auto c0 = random_matrix<T>(m, n, 43);
        const auto model = fma_order_model<T>(ta, tb, m, n, k, alpha, a, lda,
                                              b, ldb, beta, c0, ks.kc);
        for (const int threads : {1, 2}) {
          auto c = c0;
          gemm<T>(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta,
                  c.data(), n, threads, tuning);
          int differing = 0;
          int first = -1;
          for (int e = 0; e < m * n; ++e) {
            if (std::memcmp(&c[e], &model[e], sizeof(T)) != 0) {
              if (first < 0) first = e;
              ++differing;
            }
          }
          EXPECT_EQ(differing, 0)
              << "k=" << k << " ta=" << (ta == Trans::kYes) << " tb="
              << (tb == Trans::kYes) << " p=" << threads << ": first at ("
              << first / n << ", " << first % n << ") of " << m << "x" << n;
        }
      }
    }
  }
}

TEST_P(KernelVariantTest, GemmMatchesFmaOrderModelFloat) {
  if (GetParam() == kernels::Variant::kGeneric) {
    GTEST_SKIP() << "the generic tier's rounding is the compiler's choice";
  }
  expect_gemm_matches_fma_order_model<float>(GetParam());
}

TEST_P(KernelVariantTest, GemmMatchesFmaOrderModelDouble) {
  if (GetParam() == kernels::Variant::kGeneric) {
    GTEST_SKIP() << "the generic tier's rounding is the compiler's choice";
  }
  expect_gemm_matches_fma_order_model<double>(GetParam());
}

// C(i, j) must not depend on whether column j lands in a full micro-tile or
// a fringe sliver: a p = 1 GEMM on the first n columns of B has to reproduce
// those columns of the n = NR call bit for bit, for every n < NR.
template <typename T>
void expect_fringe_columns_match_full_tile(kernels::Variant variant) {
  const auto& ks = kernels::kernel_set<T>(variant);
  GemmTuning tuning;
  tuning.variant = variant;
  const int m = ks.mr + 3;  // one full row tile plus a row fringe
  const int k = 600;
  const int nr = ks.nr;
  const T alpha = T(0.7);
  const T beta = T(1.3);
  const auto a = random_matrix<T>(m, k, 44);
  const auto b = random_matrix<T>(k, nr, 45);
  const auto c0 = random_matrix<T>(m, nr, 46);
  auto full = c0;
  gemm<T>(Trans::kNo, Trans::kNo, m, nr, k, alpha, a.data(), k, b.data(), nr,
          beta, full.data(), nr, 1, tuning);
  for (int n = 1; n < nr; ++n) {
    auto sliver = c0;
    gemm<T>(Trans::kNo, Trans::kNo, m, n, k, alpha, a.data(), k, b.data(), nr,
            beta, sliver.data(), nr, 1, tuning);
    int differing = 0;
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < nr; ++j) {
        const std::size_t e = static_cast<std::size_t>(i) * nr + j;
        // Columns past n must be left untouched.
        const T& want = j < n ? full[e] : c0[e];
        if (std::memcmp(&sliver[e], &want, sizeof(T)) != 0) ++differing;
      }
    }
    EXPECT_EQ(differing, 0) << "n=" << n << " of NR=" << nr;
  }
}

TEST_P(KernelVariantTest, FringeColumnsRoundLikeFullTileFloat) {
  expect_fringe_columns_match_full_tile<float>(GetParam());
}

TEST_P(KernelVariantTest, FringeColumnsRoundLikeFullTileDouble) {
  expect_fringe_columns_match_full_tile<double>(GetParam());
}

template <typename T>
void expect_syrk_matches_reference(Uplo uplo, Trans trans, int n, int k,
                                   T alpha, T beta, int nthreads,
                                   const GemmTuning& tuning) {
  const int a_rows = trans == Trans::kNo ? n : k;
  const int a_cols = trans == Trans::kNo ? k : n;
  const int lda = std::max(1, a_cols);  // k = 0 still needs a valid stride
  const auto a = random_matrix<T>(std::max(1, a_rows), lda, 7);
  auto c = random_matrix<T>(n, n, 8);
  auto c_ref = c;

  syrk<T>(uplo, trans, n, k, alpha, a.data(), lda, beta, c.data(), n,
          nthreads, tuning);
  reference_syrk<T>(uplo, trans, n, k, alpha, a.data(), lda, beta,
                    c_ref.data(), n);

  const double tol =
      (std::is_same_v<T, float> ? 1e-4 : 1e-11) * std::max(1, k);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const bool in_triangle = uplo == Uplo::kLower ? j <= i : j >= i;
      if (in_triangle) {
        ASSERT_NEAR(static_cast<double>(c[i * n + j]),
                    static_cast<double>(c_ref[i * n + j]), tol)
            << "triangle mismatch at (" << i << ", " << j << ") n=" << n
            << " k=" << k;
      } else {
        ASSERT_EQ(c[i * n + j], c_ref[i * n + j])
            << "opposite triangle touched at (" << i << ", " << j << ")";
      }
    }
  }
}

TEST_P(KernelVariantTest, SyrkFringeSweepFloat) {
  GemmTuning tuning;
  tuning.variant = GetParam();
  for (const Uplo uplo : {Uplo::kLower, Uplo::kUpper}) {
    for (const Trans trans : {Trans::kNo, Trans::kYes}) {
      for (const auto [n, k] : {std::tuple{1, 1}, std::tuple{17, 23},
                                std::tuple{31, 7}, std::tuple{53, 29}}) {
        for (const float beta : {0.0f, 1.0f, 2.0f}) {
          expect_syrk_matches_reference<float>(uplo, trans, n, k, 1.5f, beta,
                                               3, tuning);
        }
      }
    }
  }
}

TEST_P(KernelVariantTest, SyrkFringeSweepDouble) {
  GemmTuning tuning;
  tuning.variant = GetParam();
  for (const Uplo uplo : {Uplo::kLower, Uplo::kUpper}) {
    for (const Trans trans : {Trans::kNo, Trans::kYes}) {
      for (const auto [n, k] : {std::tuple{17, 23}, std::tuple{53, 29}}) {
        for (const double beta : {0.0, 1.0, 2.0}) {
          expect_syrk_matches_reference<double>(uplo, trans, n, k, -0.5, beta,
                                                3, tuning);
        }
      }
    }
  }
}

TEST_P(KernelVariantTest, SyrkDegenerateProducts) {
  GemmTuning tuning;
  tuning.variant = GetParam();
  expect_syrk_matches_reference<float>(Uplo::kLower, Trans::kNo, 11, 0, 1.0f,
                                       2.0f, 2, tuning);
  expect_syrk_matches_reference<float>(Uplo::kUpper, Trans::kNo, 11, 9, 0.0f,
                                       0.5f, 2, tuning);
  expect_syrk_matches_reference<double>(Uplo::kLower, Trans::kYes, 11, 0, 1.0,
                                        0.0, 2, tuning);
}

TEST_P(KernelVariantTest, SyrkSpansMultipleCacheBlocks) {
  GemmTuning tuning;
  tuning.variant = GetParam();
  tuning.mc = 12;
  tuning.kc = 7;
  tuning.nc = 16;
  expect_syrk_matches_reference<float>(Uplo::kLower, Trans::kNo, 61, 43, 1.0f,
                                       1.0f, 4, tuning);
  expect_syrk_matches_reference<double>(Uplo::kUpper, Trans::kYes, 61, 43,
                                        1.0, 1.0, 4, tuning);
}

template <typename T>
void expect_trsm_matches_reference(Uplo uplo, Trans trans, Diag diag, int n,
                                   int m, T alpha, int nthreads,
                                   const GemmTuning& tuning) {
  // Diagonally dominant triangle keeps the solve well-conditioned, so the
  // forward/backward error stays near the reference's.
  auto a = random_matrix<T>(std::max(1, n), std::max(1, n), 11);
  for (int i = 0; i < n; ++i) a[i * n + i] = T(n + 2);
  auto b = random_matrix<T>(std::max(1, n), std::max(1, m), 12);
  auto b_ref = b;

  trsm<T>(uplo, trans, diag, n, m, alpha, a.data(), n, b.data(), m, nthreads,
          tuning);
  reference_trsm<T>(uplo, trans, diag, n, m, alpha, a.data(), n, b_ref.data(),
                    m);

  // Unit-diagonal solves of random triangles are ill-conditioned (solution
  // magnitude grows with n), so the tolerance scales with the result.
  double magnitude = 1.0;
  for (int i = 0; i < n * m; ++i) {
    magnitude = std::max(magnitude, std::abs(static_cast<double>(b_ref[i])));
  }
  const double tol =
      (std::is_same_v<T, float> ? 1e-4 : 1e-11) * std::max(1, n) * magnitude;
  for (int i = 0; i < n * m; ++i) {
    ASSERT_NEAR(static_cast<double>(b[i]), static_cast<double>(b_ref[i]), tol)
        << "mismatch at linear index " << i << " (n=" << n << " m=" << m
        << ")";
  }
}

TEST_P(KernelVariantTest, TrsmFringeSweepFloat) {
  GemmTuning tuning;
  tuning.variant = GetParam();
  for (const Uplo uplo : {Uplo::kLower, Uplo::kUpper}) {
    for (const Trans trans : {Trans::kNo, Trans::kYes}) {
      for (const auto [n, m] : {std::tuple{1, 1}, std::tuple{17, 23},
                                std::tuple{31, 7}, std::tuple{53, 29}}) {
        expect_trsm_matches_reference<float>(uplo, trans, Diag::kNonUnit, n,
                                             m, 1.5f, 3, tuning);
      }
    }
  }
}

TEST_P(KernelVariantTest, TrsmFringeSweepDouble) {
  GemmTuning tuning;
  tuning.variant = GetParam();
  for (const Uplo uplo : {Uplo::kLower, Uplo::kUpper}) {
    for (const Trans trans : {Trans::kNo, Trans::kYes}) {
      for (const Diag diag : {Diag::kNonUnit, Diag::kUnit}) {
        expect_trsm_matches_reference<double>(uplo, trans, diag, 37, 19, -0.5,
                                              3, tuning);
      }
    }
  }
}

TEST_P(KernelVariantTest, TrsmCrossesBlockBoundaries) {
  // kc/4 = 16-row diagonal blocks: 61 rows span four blocks with a fringe.
  GemmTuning tuning;
  tuning.variant = GetParam();
  tuning.kc = 64;
  expect_trsm_matches_reference<float>(Uplo::kLower, Trans::kNo,
                                       Diag::kNonUnit, 61, 43, 1.0f, 4,
                                       tuning);
  expect_trsm_matches_reference<double>(Uplo::kUpper, Trans::kYes,
                                        Diag::kUnit, 61, 43, 1.0, 4, tuning);
}

// The blocked solver as it was before the diagonal solve moved into the
// KernelSet: same nb, the scalar in-place substitution, and the same
// trailing gemm<T> calls with the same tuning. Its output is the bit-exact
// oracle for trsm on every kernel variant (this file is compiled with
// -ffp-contract=off, so the scalar loop rounds each product like the
// kernels do).
template <typename T>
void scalar_solve_diag_block(Trans trans, Diag diag, int j0, int j1, int m,
                             const T* a, long lda, T* b, long ldb,
                             bool forward) {
  const auto op_a = [&](int i, int p) {
    return trans == Trans::kNo ? a[i * lda + p] : a[p * lda + i];
  };
  const auto update = [&](int i, int p) {
    const T f = op_a(i, p);
    T* row_i = b + i * ldb;
    const T* row_p = b + p * ldb;
    for (int c = 0; c < m; ++c) row_i[c] -= f * row_p[c];
  };
  const auto divide = [&](int i) {
    if (diag == Diag::kUnit) return;
    const T d = op_a(i, i);
    T* row_i = b + i * ldb;
    for (int c = 0; c < m; ++c) row_i[c] /= d;
  };
  if (forward) {
    for (int i = j0; i < j1; ++i) {
      for (int p = j0; p < i; ++p) update(i, p);
      divide(i);
    }
  } else {
    for (int i = j1 - 1; i >= j0; --i) {
      for (int p = i + 1; p < j1; ++p) update(i, p);
      divide(i);
    }
  }
}

template <typename T>
void scalar_blocked_trsm(Uplo uplo, Trans trans, Diag diag, int n, int m,
                         T alpha, const T* a, int lda, T* b, int ldb,
                         int nthreads, const GemmTuning& tuning) {
  if (n == 0 || m == 0) return;
  if (alpha != T(1)) {
    for (int i = 0; i < n; ++i) {
      T* row = b + static_cast<long>(i) * ldb;
      for (int c = 0; c < m; ++c) {
        row[c] = alpha == T(0) ? T(0) : row[c] * alpha;
      }
    }
  }
  if (alpha == T(0)) return;
  const bool forward = (uplo == Uplo::kLower) == (trans == Trans::kNo);
  const auto geom =
      detail::block_geometry(kernels::kernel_set<T>(tuning.variant), tuning);
  const int nb = std::clamp(geom.kc / 4, 16, 256);
  if (forward) {
    for (int j0 = 0; j0 < n; j0 += nb) {
      const int j1 = std::min(j0 + nb, n);
      scalar_solve_diag_block(trans, diag, j0, j1, m, a, lda, b, ldb, true);
      if (j1 < n) {
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
      scalar_solve_diag_block(trans, diag, j0, j1, m, a, lda, b, ldb, false);
      if (j0 > 0) {
        const T* a_sub =
            trans == Trans::kNo ? a + j0 : a + static_cast<long>(j0) * lda;
        gemm<T>(trans, Trans::kNo, j0, m, j1 - j0, T(-1), a_sub, lda,
                b + static_cast<long>(j0) * ldb, ldb, T(1), b, ldb, nthreads,
                tuning);
      }
    }
  }
}

template <typename T>
void expect_trsm_bit_identical_to_scalar_solver(kernels::Variant variant) {
  GemmTuning tuning;
  tuning.variant = variant;
  const T alphas[] = {T(1), T(-0.5), T(0)};
  int flags = 0;
  for (const Uplo uplo : {Uplo::kLower, Uplo::kUpper}) {
    for (const Trans trans : {Trans::kNo, Trans::kYes}) {
      for (const Diag diag : {Diag::kNonUnit, Diag::kUnit}) {
        ++flags;
        int shape = 0;
        for (const int n : {1, 15, 16, 17, 127, 128, 129, 300}) {
          auto a = random_matrix<T>(n, n, 21);
          for (int i = 0; i < n; ++i) a[i * n + i] = T(n + 2);
          for (const int m : {1, 15, 16, 17, 63, 64, 65, 1000}) {
            // alpha and the thread count rotate with the flag combination,
            // so across the eight combinations every (n, m) meets all three
            // alphas and all four thread counts.
            const T alpha = alphas[(flags + shape) % 3];
            const int threads = 1 + (flags + shape) % 4;
            ++shape;
            auto b = random_matrix<T>(n, m, 22);
            auto b_ref = b;
            trsm<T>(uplo, trans, diag, n, m, alpha, a.data(), n, b.data(), m,
                    threads, tuning);
            scalar_blocked_trsm<T>(uplo, trans, diag, n, m, alpha, a.data(), n,
                                   b_ref.data(), m, threads, tuning);
            ASSERT_EQ(std::memcmp(b.data(), b_ref.data(), b.size() * sizeof(T)),
                      0)
                << "uplo=" << static_cast<int>(uplo)
                << " trans=" << static_cast<int>(trans)
                << " diag=" << static_cast<int>(diag) << " n=" << n
                << " m=" << m << " alpha=" << alpha << " threads=" << threads;
          }
        }
      }
    }
  }
}

TEST_P(KernelVariantTest, TrsmBitIdenticalToScalarSolverFloat) {
  expect_trsm_bit_identical_to_scalar_solver<float>(GetParam());
}

TEST_P(KernelVariantTest, TrsmBitIdenticalToScalarSolverDouble) {
  expect_trsm_bit_identical_to_scalar_solver<double>(GetParam());
}

template <typename T>
void expect_symm_matches_reference(Uplo uplo, int n, int m, T alpha, T beta,
                                   int nthreads, const GemmTuning& tuning) {
  const auto a = random_matrix<T>(std::max(1, n), std::max(1, n), 13);
  const auto b = random_matrix<T>(std::max(1, n), std::max(1, m), 14);
  auto c = random_matrix<T>(std::max(1, n), std::max(1, m), 15);
  auto c_ref = c;

  symm<T>(uplo, n, m, alpha, a.data(), n, b.data(), m, beta, c.data(), m,
          nthreads, tuning);
  reference_symm<T>(uplo, n, m, alpha, a.data(), n, b.data(), m, beta,
                    c_ref.data(), m);

  const double tol =
      (std::is_same_v<T, float> ? 1e-4 : 1e-11) * std::max(1, n);
  for (int i = 0; i < n * m; ++i) {
    ASSERT_NEAR(static_cast<double>(c[i]), static_cast<double>(c_ref[i]), tol)
        << "mismatch at linear index " << i << " (n=" << n << " m=" << m
        << ")";
  }
}

TEST_P(KernelVariantTest, SymmFringeSweepFloat) {
  GemmTuning tuning;
  tuning.variant = GetParam();
  for (const Uplo uplo : {Uplo::kLower, Uplo::kUpper}) {
    for (const auto [n, m] : {std::tuple{1, 1}, std::tuple{17, 23},
                              std::tuple{31, 7}, std::tuple{53, 29}}) {
      for (const float beta : {0.0f, 1.0f, 2.0f}) {
        expect_symm_matches_reference<float>(uplo, n, m, 1.25f, beta, 3,
                                             tuning);
      }
    }
  }
}

TEST_P(KernelVariantTest, SymmFringeSweepDouble) {
  GemmTuning tuning;
  tuning.variant = GetParam();
  for (const Uplo uplo : {Uplo::kLower, Uplo::kUpper}) {
    for (const auto [n, m] : {std::tuple{17, 23}, std::tuple{53, 29}}) {
      for (const double beta : {0.0, 1.0, 2.0}) {
        expect_symm_matches_reference<double>(uplo, n, m, -0.5, beta, 3,
                                              tuning);
      }
    }
  }
}

TEST_P(KernelVariantTest, SymmSpansMultipleCacheBlocks) {
  GemmTuning tuning;
  tuning.variant = GetParam();
  tuning.mc = 12;
  tuning.kc = 7;
  tuning.nc = 16;
  expect_symm_matches_reference<float>(Uplo::kLower, 61, 43, 1.0f, 1.0f, 4,
                                       tuning);
  expect_symm_matches_reference<double>(Uplo::kUpper, 61, 43, 1.0, 1.0, 4,
                                        tuning);
}

TEST_P(KernelVariantTest, SymmAlphaZeroIsBetaPass) {
  GemmTuning tuning;
  tuning.variant = GetParam();
  expect_symm_matches_reference<float>(Uplo::kLower, 9, 13, 0.0f, 0.5f, 2,
                                       tuning);
  expect_symm_matches_reference<double>(Uplo::kUpper, 9, 13, 0.0, 0.0, 2,
                                        tuning);
}

template <typename T>
void expect_trmm_matches_reference(Uplo uplo, Trans trans, Diag diag, int n,
                                   int m, T alpha, int nthreads,
                                   const GemmTuning& tuning) {
  const auto a = random_matrix<T>(std::max(1, n), std::max(1, n), 17);
  auto b = random_matrix<T>(std::max(1, n), std::max(1, m), 18);
  auto b_ref = b;

  trmm<T>(uplo, trans, diag, n, m, alpha, a.data(), n, b.data(), m, nthreads,
          tuning);
  reference_trmm<T>(uplo, trans, diag, n, m, alpha, a.data(), n, b_ref.data(),
                    m);

  const double tol =
      (std::is_same_v<T, float> ? 1e-4 : 1e-11) * std::max(1, n);
  for (int i = 0; i < n * m; ++i) {
    ASSERT_NEAR(static_cast<double>(b[i]), static_cast<double>(b_ref[i]), tol)
        << "mismatch at linear index " << i << " (n=" << n << " m=" << m
        << ")";
  }
}

TEST_P(KernelVariantTest, TrmmFringeSweepFloat) {
  GemmTuning tuning;
  tuning.variant = GetParam();
  for (const Uplo uplo : {Uplo::kLower, Uplo::kUpper}) {
    for (const Trans trans : {Trans::kNo, Trans::kYes}) {
      for (const auto [n, m] : {std::tuple{1, 1}, std::tuple{17, 23},
                                std::tuple{31, 7}, std::tuple{53, 29}}) {
        expect_trmm_matches_reference<float>(uplo, trans, Diag::kNonUnit, n,
                                             m, 1.5f, 3, tuning);
      }
    }
  }
}

TEST_P(KernelVariantTest, TrmmFringeSweepDouble) {
  GemmTuning tuning;
  tuning.variant = GetParam();
  for (const Uplo uplo : {Uplo::kLower, Uplo::kUpper}) {
    for (const Trans trans : {Trans::kNo, Trans::kYes}) {
      for (const Diag diag : {Diag::kNonUnit, Diag::kUnit}) {
        expect_trmm_matches_reference<double>(uplo, trans, diag, 37, 19, -0.5,
                                              3, tuning);
      }
    }
  }
}

TEST_P(KernelVariantTest, TrmmSpansMultipleCacheBlocks) {
  // Small blocking forces the triangle-slab skip logic across many (ic, pc)
  // combinations, including partially-intersecting diagonal blocks.
  GemmTuning tuning;
  tuning.variant = GetParam();
  tuning.mc = 12;
  tuning.kc = 7;
  tuning.nc = 16;
  expect_trmm_matches_reference<float>(Uplo::kLower, Trans::kNo,
                                       Diag::kNonUnit, 61, 43, 1.0f, 4,
                                       tuning);
  expect_trmm_matches_reference<double>(Uplo::kUpper, Trans::kYes,
                                        Diag::kUnit, 61, 43, 1.0, 4, tuning);
}

TEST_P(KernelVariantTest, TrmmAlphaZeroZeroesB) {
  GemmTuning tuning;
  tuning.variant = GetParam();
  expect_trmm_matches_reference<float>(Uplo::kLower, Trans::kNo,
                                       Diag::kNonUnit, 9, 13, 0.0f, 2,
                                       tuning);
  expect_trmm_matches_reference<double>(Uplo::kUpper, Trans::kNo,
                                        Diag::kUnit, 9, 13, 0.0, 2, tuning);
}

// ------------------------------------------------------ padded strides --
// Every op called with each leading dimension 7 past the tight one, the
// padding filled with a NaN sentinel: the padding bytes must come back
// unchanged (masked tails and fringe write-backs are where an overrun would
// land), and the result must be bitwise equal to the tight-stride call (a
// sentinel read into the arithmetic would show as NaN).

inline constexpr int kLdPad = 7;

/// Copies a tight rows x cols matrix into rows x (cols + kLdPad) storage
/// whose padding holds the NaN sentinel.
template <typename T>
std::vector<T> padded_copy(const std::vector<T>& tight, int rows, int cols) {
  const int ld = cols + kLdPad;
  std::vector<T> out(static_cast<std::size_t>(rows) * ld,
                     std::numeric_limits<T>::quiet_NaN());
  for (int i = 0; i < rows; ++i) {
    std::copy_n(tight.begin() + static_cast<long>(i) * cols, cols,
                out.begin() + static_cast<long>(i) * ld);
  }
  return out;
}

template <typename T>
void expect_padded_matches_tight(const std::vector<T>& padded,
                                 const std::vector<T>& tight, int rows,
                                 int cols, const char* what) {
  const int ld = cols + kLdPad;
  const T sentinel = std::numeric_limits<T>::quiet_NaN();
  for (int i = 0; i < rows; ++i) {
    const T* row = padded.data() + static_cast<long>(i) * ld;
    ASSERT_EQ(std::memcmp(row, tight.data() + static_cast<long>(i) * cols,
                          cols * sizeof(T)),
              0)
        << what << ": row " << i << " differs from the tight-stride call";
    for (int j = cols; j < ld; ++j) {
      ASSERT_EQ(std::memcmp(row + j, &sentinel, sizeof(T)), 0)
          << what << ": padding overwritten at (" << i << ", " << j << ")";
    }
  }
}

template <typename T>
void expect_padded_strides_are_inert(const GemmTuning& tuning) {
  constexpr int kThreads = 3;
  for (const auto [n, m] : {std::tuple{1, 1}, std::tuple{17, 33},
                            std::tuple{130, 65}}) {
    const auto a = random_matrix<T>(n, n, 31);
    const auto a_pad = padded_copy(a, n, n);
    const auto b = random_matrix<T>(n, m, 32);
    const auto b_pad = padded_copy(b, n, m);
    const int lda = n + kLdPad;
    const int ldb = m + kLdPad;
    for (const Trans trans : {Trans::kNo, Trans::kYes}) {
      {  // gemm: op(A) n x n times B n x m into C n x m.
        auto c = random_matrix<T>(n, m, 33);
        auto c_pad = padded_copy(c, n, m);
        gemm<T>(trans, Trans::kNo, n, m, n, T(1.5), a.data(), n, b.data(), m,
                T(-1), c.data(), m, kThreads, tuning);
        gemm<T>(trans, Trans::kNo, n, m, n, T(1.5), a_pad.data(), lda,
                b_pad.data(), ldb, T(-1), c_pad.data(), ldb, kThreads, tuning);
        expect_padded_matches_tight(c_pad, c, n, m, "gemm");
      }
      for (const Uplo uplo : {Uplo::kLower, Uplo::kUpper}) {
        {  // syrk: A n x n (either orientation) into C n x n.
          auto c = random_matrix<T>(n, n, 34);
          auto c_pad = padded_copy(c, n, n);
          syrk<T>(uplo, trans, n, n, T(0.5), a.data(), n, T(2), c.data(), n,
                  kThreads, tuning);
          syrk<T>(uplo, trans, n, n, T(0.5), a_pad.data(), lda, T(2),
                  c_pad.data(), lda, kThreads, tuning);
          expect_padded_matches_tight(c_pad, c, n, n, "syrk");
        }
        {  // symm: the stored triangle of A times B into C n x m.
          auto c = random_matrix<T>(n, m, 35);
          auto c_pad = padded_copy(c, n, m);
          symm<T>(uplo, n, m, T(1), a.data(), n, b.data(), m, T(1), c.data(),
                  m, kThreads, tuning);
          symm<T>(uplo, n, m, T(1), a_pad.data(), lda, b_pad.data(), ldb,
                  T(1), c_pad.data(), ldb, kThreads, tuning);
          expect_padded_matches_tight(c_pad, c, n, m, "symm");
        }
        for (const Diag diag : {Diag::kNonUnit, Diag::kUnit}) {
          auto x = b;
          auto x_pad = b_pad;
          trmm<T>(uplo, trans, diag, n, m, T(1), a.data(), n, x.data(), m,
                  kThreads, tuning);
          trmm<T>(uplo, trans, diag, n, m, T(1), a_pad.data(), lda,
                  x_pad.data(), ldb, kThreads, tuning);
          expect_padded_matches_tight(x_pad, x, n, m, "trmm");

          // trsm needs a well-conditioned triangle.
          auto ad = a;
          for (int i = 0; i < n; ++i) ad[i * n + i] = T(n + 2);
          const auto ad_pad = padded_copy(ad, n, n);
          x = b;
          x_pad = b_pad;
          trsm<T>(uplo, trans, diag, n, m, T(1), ad.data(), n, x.data(), m,
                  kThreads, tuning);
          trsm<T>(uplo, trans, diag, n, m, T(1), ad_pad.data(), lda,
                  x_pad.data(), ldb, kThreads, tuning);
          expect_padded_matches_tight(x_pad, x, n, m, "trsm");
        }
      }
    }
  }
}

TEST_P(KernelVariantTest, PaddedLeadingDimensionsFloat) {
  GemmTuning tuning;
  tuning.variant = GetParam();
  expect_padded_strides_are_inert<float>(tuning);
}

TEST_P(KernelVariantTest, PaddedLeadingDimensionsDouble) {
  GemmTuning tuning;
  tuning.variant = GetParam();
  expect_padded_strides_are_inert<double>(tuning);
}

TEST_P(KernelVariantTest, TrsmAlphaZeroZeroesNanB) {
  GemmTuning tuning;
  tuning.variant = GetParam();
  const int n = 37, m = 45;
  auto a = random_matrix<double>(n, n, 36);
  std::vector<double> b(n * m, std::numeric_limits<double>::quiet_NaN());
  trsm<double>(Uplo::kLower, Trans::kNo, Diag::kNonUnit, n, m, 0.0, a.data(),
               n, b.data(), m, 2, tuning);
  for (int i = 0; i < n * m; ++i) ASSERT_EQ(b[i], 0.0) << "index " << i;
}

TEST_P(KernelVariantTest, TrsmUnitDiagonalIgnoresStoredNan) {
  // A unit-diagonal solve must never read A's diagonal: storing NaN there
  // gives the same bits as storing the solve's own diagonal value.
  GemmTuning tuning;
  tuning.variant = GetParam();
  const int n = 150, m = 70;
  auto a = random_matrix<float>(n, n, 37);
  for (int i = 0; i < n; ++i) a[i * n + i] = 1.0f;
  auto a_nan = a;
  for (int i = 0; i < n; ++i) {
    a_nan[i * n + i] = std::numeric_limits<float>::quiet_NaN();
  }
  for (const Uplo uplo : {Uplo::kLower, Uplo::kUpper}) {
    for (const Trans trans : {Trans::kNo, Trans::kYes}) {
      auto x = random_matrix<float>(n, m, 38);
      auto x_nan = x;
      trsm<float>(uplo, trans, Diag::kUnit, n, m, 1.0f, a.data(), n, x.data(),
                  m, 2, tuning);
      trsm<float>(uplo, trans, Diag::kUnit, n, m, 1.0f, a_nan.data(), n,
                  x_nan.data(), m, 2, tuning);
      ASSERT_EQ(
          std::memcmp(x.data(), x_nan.data(), x.size() * sizeof(float)), 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Dispatched, KernelVariantTest,
    ::testing::ValuesIn(kernels::supported_variants()),
    [](const ::testing::TestParamInfo<kernels::Variant>& info) {
      return std::string(kernels::variant_name(info.param));
    });

// ------------------------------------------------------ zero-alloc hot path
// After a first call of a given shape has grown the PackArena slabs, a
// repeat of that shape (and anything smaller) must perform zero heap
// allocations across every op's macro-loop — the per-call AlignedBuffer
// cost the arena was introduced to eliminate.

TEST(PackArenaHotPath, RepeatedCallsOfOneShapeAllocateNothing) {
  const int n = 64, m = 96, k = 48;  // ldc = m >= n so one C serves all ops
  const auto a = random_matrix<float>(n, n, 21);
  const auto b0 = random_matrix<float>(n, m, 22);
  auto c = random_matrix<float>(n, m, 23);
  auto b_io = b0;

  // p = 1 carves from the caller's thread slab, p = 2 from the shared slab
  // plus each participant's thread slab: both must settle.
  for (const int threads : {1, 2}) {
    auto run_all = [&] {
      gemm<float>(Trans::kNo, Trans::kNo, n, m, k, 1.5f, a.data(), n,
                  b0.data(), m, 0.5f, c.data(), m, threads);
      syrk<float>(Uplo::kLower, Trans::kNo, n, k, 1.0f, a.data(), n, 0.5f,
                  c.data(), m, threads);
      symm<float>(Uplo::kUpper, n, m, 1.0f, a.data(), n, b0.data(), m, 0.0f,
                  c.data(), m, threads);
      b_io = b0;
      trmm<float>(Uplo::kLower, Trans::kNo, Diag::kNonUnit, n, m, 2.0f,
                  a.data(), n, b_io.data(), m, threads);
      b_io = b0;
      trsm<float>(Uplo::kLower, Trans::kNo, Diag::kNonUnit, n, m, 1.0f,
                  a.data(), n, b_io.data(), m, threads);
    };

    run_all();  // grows the slabs to this shape's high-water mark
    const std::size_t growths = PackArena::global().growth_count();
    run_all();
    run_all();
    EXPECT_EQ(PackArena::global().growth_count(), growths)
        << "threads=" << threads
        << ": a repeated shape must be served entirely from the arena";
  }
}

TEST(PackArenaHotPath, HugeTrmmCopyDoesNotPinArenaMemory) {
  // TRMM's dense B copy is O(n * m) of the input; above the arena threshold
  // it must come from a per-call buffer so one big call doesn't pin that
  // much grow-only scratch for the process lifetime. 1500 x 1500 fp64 is an
  // 18 MB copy, past the 16 MB cap.
  const int n = 1500, m = 1500;
  std::vector<double> a(static_cast<std::size_t>(n) * n, 0.0);
  for (int i = 0; i < n; ++i) a[static_cast<std::size_t>(i) * n + i] = 1.0;
  auto b = random_matrix<double>(n, m, 31);
  const auto b0 = b;

  const std::size_t before = PackArena::global().footprint_bytes();
  trmm<double>(Uplo::kLower, Trans::kNo, Diag::kNonUnit, n, m, 2.0, a.data(),
               n, b.data(), m, 2);
  const std::size_t grown = PackArena::global().footprint_bytes() - before;
  EXPECT_LT(grown, static_cast<std::size_t>(n) * m * sizeof(double))
      << "the dense copy must not land in the grow-only arena";

  // A == I, so the product is exactly alpha * B — cheap full verification.
  for (std::size_t i = 0; i < b.size(); i += 997) {
    ASSERT_DOUBLE_EQ(b[i], 2.0 * b0[i]) << "index " << i;
  }
}

TEST(KernelDispatch, ParseVariantVocabulary) {
  EXPECT_EQ(kernels::parse_variant("auto"), kernels::Variant::kAuto);
  EXPECT_EQ(kernels::parse_variant("generic"), kernels::Variant::kGeneric);
  EXPECT_EQ(kernels::parse_variant("avx2"), kernels::Variant::kAvx2);
  EXPECT_EQ(kernels::parse_variant("avx512"), kernels::Variant::kAvx512);
  EXPECT_FALSE(kernels::parse_variant("sse9").has_value());
  EXPECT_FALSE(kernels::parse_variant("").has_value());
}

TEST(KernelDispatch, GenericAlwaysSupported) {
  const auto variants = kernels::supported_variants();
  ASSERT_FALSE(variants.empty());
  EXPECT_EQ(variants.front(), kernels::Variant::kGeneric);
}

TEST(KernelDispatch, SetVariantOverridesActive) {
  kernels::set_variant(kernels::Variant::kGeneric);
  EXPECT_EQ(kernels::active_variant(), kernels::Variant::kGeneric);
  kernels::set_variant(kernels::Variant::kAuto);  // restore default selection
  EXPECT_NE(kernels::active_variant(), kernels::Variant::kAuto);
}

TEST(KernelDispatch, Avx2GeometryWhenSupported) {
  if (!kernels::cpu_supports_avx2()) {
    GTEST_SKIP() << "host lacks AVX2";
  }
  const auto& f32 = kernels::kernel_set<float>(kernels::Variant::kAvx2);
  const auto& f64 = kernels::kernel_set<double>(kernels::Variant::kAvx2);
  EXPECT_EQ(f32.mr, 6);
  EXPECT_EQ(f32.nr, 16);
  EXPECT_EQ(f64.mr, 6);
  EXPECT_EQ(f64.nr, 8);
}

// The parameterised KernelVariantTest sweep above already exercises the
// avx512 kernels through all five ops whenever CPUID reports AVX-512 (they
// simply drop out of supported_variants() otherwise); this pins the
// register-budgeted geometry and the graceful-degradation contract on hosts
// without the ISA.
TEST(KernelDispatch, Avx512GeometryOrGracefulSkip) {
  if (!kernels::cpu_supports_avx512()) {
    // supported_variants() must not advertise it, set_variant must refuse
    // it, and a concrete kernel_set request must degrade down the ladder:
    // avx2 when the host has that tier, generic otherwise.
    const auto variants = kernels::supported_variants();
    EXPECT_EQ(std::count(variants.begin(), variants.end(),
                         kernels::Variant::kAvx512),
              0);
    EXPECT_THROW(kernels::set_variant(kernels::Variant::kAvx512),
                 std::runtime_error);
    EXPECT_STREQ(kernels::kernel_set<float>(kernels::Variant::kAvx512).name,
                 kernels::cpu_supports_avx2() ? "avx2" : "generic");
    GTEST_SKIP() << "host lacks AVX-512F";
  }
  const auto& f32 = kernels::kernel_set<float>(kernels::Variant::kAvx512);
  const auto& f64 = kernels::kernel_set<double>(kernels::Variant::kAvx512);
  EXPECT_EQ(f32.mr, 14);
  EXPECT_EQ(f32.nr, 32);
  EXPECT_EQ(f64.mr, 14);
  EXPECT_EQ(f64.nr, 16);
  // The SYRK diagonal-tile scratch is stack-sized from these bounds.
  EXPECT_LE(f32.mr, kernels::kMaxMr);
  EXPECT_LE(f32.nr, kernels::kMaxNr);
  // AVX-512 implies AVX2: the fallback ladder must keep both tiers.
  EXPECT_TRUE(kernels::cpu_supports_avx2());
}

// ------------------------------------------------------- operation table --
// op.h is table-driven: name, code, and parsing all derive from one row per
// operation. The round-trip must hold for every registered op so that a new
// table row automatically gets CSV persistence and CLI parsing right.

TEST(OpKind, TableRoundTripsEveryRegisteredOp) {
  static_assert(all_ops().size() == kNumOps);
  for (const OpKind op : all_ops()) {
    const auto from_name = parse_op(op_name(op));
    ASSERT_TRUE(from_name.has_value()) << op_name(op);
    EXPECT_EQ(*from_name, op);
    const auto from_code = op_from_code(op_code(op));
    ASSERT_TRUE(from_code.has_value()) << op_name(op);
    EXPECT_EQ(*from_code, op);
  }
}

TEST(OpKind, NamesAndCodesAreDistinct) {
  const auto ops = all_ops();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    for (std::size_t j = i + 1; j < ops.size(); ++j) {
      EXPECT_STRNE(op_name(ops[i]), op_name(ops[j]));
      EXPECT_NE(op_code(ops[i]), op_code(ops[j]));
    }
  }
  // Codes are contiguous from 0 in table order — the op-aware feature
  // schema indexes one-hot columns by code.
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(op_code(ops[i]), static_cast<int>(i));
  }
}

TEST(OpKind, UnknownInputsAreRejected) {
  EXPECT_FALSE(op_from_code(-1).has_value());
  EXPECT_FALSE(op_from_code(static_cast<int>(kNumOps)).has_value());
  EXPECT_FALSE(parse_op("").has_value());
  EXPECT_FALSE(parse_op("gemv").has_value());
  EXPECT_FALSE(parse_op("GEMM").has_value()) << "names are case-sensitive";
}

TEST(OpKind, KnownSpellings) {
  // The CSV codes are a persistence format: spell them out so a table edit
  // that silently renumbers existing ops fails here.
  EXPECT_EQ(op_code(OpKind::kGemm), 0);
  EXPECT_EQ(op_code(OpKind::kSyrk), 1);
  EXPECT_EQ(op_code(OpKind::kTrsm), 2);
  EXPECT_EQ(op_code(OpKind::kSymm), 3);
  EXPECT_EQ(op_code(OpKind::kTrmm), 4);
  EXPECT_STREQ(op_name(OpKind::kTrsm), "trsm");
  EXPECT_STREQ(op_name(OpKind::kSymm), "symm");
  EXPECT_STREQ(op_name(OpKind::kTrmm), "trmm");
}

TEST(GemmHelpers, MemoryBytes) {
  // 4 * (mk + kn + mn), single precision.
  EXPECT_EQ(gemm_memory_bytes(10, 20, 30, 4),
            4u * (10 * 20 + 20 * 30 + 10 * 30));
}

TEST(GemmHelpers, FlopCount) {
  EXPECT_DOUBLE_EQ(gemm_flops(10, 20, 30), 2.0 * 10 * 20 * 30);
}

}  // namespace
}  // namespace adsala::blas
