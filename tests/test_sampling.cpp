// Tests for Halton / scrambled Halton sequences, the GEMM domain sampler,
// and the registry rows' 2-D family samplers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "core/op_registry.h"
#include "sampling/domain.h"
#include "sampling/halton.h"

namespace adsala::sampling {
namespace {

TEST(RadicalInverse, KnownBase2Values) {
  EXPECT_DOUBLE_EQ(radical_inverse(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(radical_inverse(1, 2), 0.5);
  EXPECT_DOUBLE_EQ(radical_inverse(2, 2), 0.25);
  EXPECT_DOUBLE_EQ(radical_inverse(3, 2), 0.75);
  EXPECT_DOUBLE_EQ(radical_inverse(4, 2), 0.125);
}

TEST(RadicalInverse, KnownBase3Values) {
  EXPECT_DOUBLE_EQ(radical_inverse(1, 3), 1.0 / 3);
  EXPECT_DOUBLE_EQ(radical_inverse(2, 3), 2.0 / 3);
  EXPECT_DOUBLE_EQ(radical_inverse(3, 3), 1.0 / 9);
}

TEST(RadicalInverse, RejectsBadBase) {
  EXPECT_THROW(radical_inverse(1, 1), std::invalid_argument);
  EXPECT_THROW(radical_inverse(1, 0), std::invalid_argument);
}

TEST(Halton, StreamMatchesPointIndexing) {
  HaltonSequence seq({2, 3});
  for (std::uint64_t i = 1; i <= 20; ++i) {
    const auto streamed = seq.next();
    const auto indexed = HaltonSequence({2, 3}).point(i);
    EXPECT_EQ(streamed, indexed);
  }
}

TEST(Halton, LowDiscrepancyCoverage) {
  // Every 1/8-wide interval of [0,1) must receive close to n/8 of the first
  // n base-2 points — far tighter than random sampling would guarantee.
  HaltonSequence seq({2});
  std::vector<int> bucket(8, 0);
  const int n = 1024;
  for (int i = 0; i < n; ++i) {
    ++bucket[static_cast<std::size_t>(seq.next()[0] * 8)];
  }
  for (int b = 0; b < 8; ++b) {
    EXPECT_NEAR(bucket[b], n / 8, 2) << "bucket " << b;
  }
}

TEST(ScrambledHalton, PermutationFixesZeroAndIsBijection) {
  ScrambledHalton seq({2, 3, 4, 7}, 99);
  for (std::size_t d = 0; d < 4; ++d) {
    const auto& perm = seq.permutation(d);
    EXPECT_EQ(perm[0], 0u) << "pi(0)=0 is required for convergence";
    std::set<unsigned> values(perm.begin(), perm.end());
    EXPECT_EQ(values.size(), perm.size()) << "must be a bijection";
  }
}

TEST(ScrambledHalton, ValuesInUnitInterval) {
  ScrambledHalton seq({2, 3, 4}, 123);
  for (int i = 0; i < 500; ++i) {
    for (double v : seq.next()) {
      EXPECT_GE(v, 0.0);
      EXPECT_LT(v, 1.0);
    }
  }
}

TEST(ScrambledHalton, SeedChangesSequence) {
  ScrambledHalton a({5, 7}, 1), b({5, 7}, 2);
  int diffs = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.next() != b.next()) ++diffs;
  }
  EXPECT_GT(diffs, 25);
}

TEST(ScrambledHalton, PreservesLowDiscrepancy) {
  // Scrambling permutes digits but must keep the equidistribution property.
  ScrambledHalton seq({3}, 77);
  std::vector<int> bucket(9, 0);
  const int n = 729 * 2;
  for (int i = 0; i < n; ++i) {
    ++bucket[static_cast<std::size_t>(seq.next()[0] * 9)];
  }
  for (int b = 0; b < 9; ++b) {
    EXPECT_NEAR(bucket[b], n / 9, 4) << "bucket " << b;
  }
}

TEST(ScrambledHalton, BreaksPlainHaltonCorrelation) {
  // In close bases (e.g. 4 and 5) plain Halton exhibits strong diagonal
  // streaking: consecutive points are highly correlated across dimensions.
  // Scrambling must reduce the rank correlation of coordinates.
  auto corr_of = [](auto& seq, int n) {
    double sxy = 0, sx = 0, sy = 0, sxx = 0, syy = 0;
    for (int i = 0; i < n; ++i) {
      const auto p = seq.next();
      sx += p[0];
      sy += p[1];
      sxy += p[0] * p[1];
      sxx += p[0] * p[0];
      syy += p[1] * p[1];
    }
    const double cov = sxy / n - (sx / n) * (sy / n);
    const double vx = sxx / n - (sx / n) * (sx / n);
    const double vy = syy / n - (sy / n) * (sy / n);
    return cov / std::sqrt(vx * vy);
  };
  // For indices below min(base), plain Halton emits (i/17, i/19): an almost
  // perfectly correlated diagonal. Scrambling must destroy it.
  const int n = 16;
  HaltonSequence plain({17, 19});
  ScrambledHalton scrambled({17, 19}, 5);
  EXPECT_GT(corr_of(plain, n), 0.99);
  EXPECT_LT(std::fabs(corr_of(scrambled, n)), 0.8);
}

// ------------------------------------------------------------------ Domain

TEST(Domain, SamplesRespectMemoryCap) {
  DomainConfig cfg;
  cfg.memory_cap_bytes = 100ull * 1024 * 1024;
  cfg.dim_max = 40000;
  GemmDomainSampler sampler(cfg);
  for (const auto& s : sampler.sample(200)) {
    EXPECT_LE(s.bytes(), static_cast<double>(cfg.memory_cap_bytes));
    EXPECT_GE(s.m, 1);
    EXPECT_GE(s.k, 1);
    EXPECT_GE(s.n, 1);
    EXPECT_LE(s.m, cfg.dim_max);
  }
}

TEST(Domain, DeterministicForFixedSeed) {
  DomainConfig cfg;
  cfg.seed = 42;
  GemmDomainSampler a(cfg), b(cfg);
  const auto sa = a.sample(50), sb = b.sample(50);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(sa[i].m, sb[i].m);
    EXPECT_EQ(sa[i].k, sb[i].k);
    EXPECT_EQ(sa[i].n, sb[i].n);
  }
}

TEST(Domain, SqrtScaleMapping) {
  DomainConfig cfg;
  cfg.dim_min = 1;
  cfg.dim_max = 10000;
  GemmDomainSampler sampler(cfg);
  // u = 0 -> dim_min, u -> 1 approaches dim_max; u = 0.5 -> ~quarter point
  // in linear space (sqrt scale).
  const auto lo = sampler.map_point({0.0, 0.0, 0.0});
  EXPECT_EQ(lo.m, 1);
  const auto mid = sampler.map_point({0.5, 0.5, 0.5});
  const double expect_mid = std::pow((1.0 + std::sqrt(10000.0)) / 2.0, 2);
  EXPECT_NEAR(static_cast<double>(mid.m), expect_mid, expect_mid * 0.02);
}

TEST(Domain, ProducesSkinnyAndSquareShapes) {
  DomainConfig cfg;
  cfg.memory_cap_bytes = 500ull * 1024 * 1024;
  GemmDomainSampler sampler(cfg);
  const auto shapes = sampler.sample(500);
  int skinny = 0, squarish = 0;
  for (const auto& s : shapes) {
    const double lo = static_cast<double>(std::min({s.m, s.k, s.n}));
    const double hi = static_cast<double>(std::max({s.m, s.k, s.n}));
    if (hi / lo > 50.0) ++skinny;
    if (hi / lo < 12.0) ++squarish;
  }
  EXPECT_GT(skinny, 10) << "domain must include very skinny shapes";
  EXPECT_GT(squarish, 10) << "domain must include moderate-aspect shapes";
}

TEST(Domain, RejectsBadConfig) {
  DomainConfig two_bases;
  two_bases.bases = {2, 3};
  EXPECT_THROW(GemmDomainSampler{two_bases}, std::invalid_argument);
  DomainConfig bad_bounds;
  bad_bounds.dim_min = 10;
  bad_bounds.dim_max = 5;
  EXPECT_THROW(GemmDomainSampler{bad_bounds}, std::invalid_argument);
}

TEST(Domain, ImpossibleCapThrowsOnSample) {
  DomainConfig cfg;
  cfg.memory_cap_bytes = 1;  // nothing fits
  GemmDomainSampler sampler(cfg);
  EXPECT_THROW(sampler.sample(10), std::runtime_error);
}

/// The sampler of `op`'s registry row.
std::unique_ptr<DomainSampler> sampler_for(blas::OpKind op,
                                           const DomainConfig& cfg) {
  return core::op_traits(op).make_sampler(cfg);
}

// ------------------------------------------------------------- SyrkDomain

TEST(SyrkDomain, ShapesCarryEquivalentGemmConvention) {
  DomainConfig cfg;
  cfg.memory_cap_bytes = 100ull * 1024 * 1024;
  cfg.dim_max = 40000;
  const auto sampler = sampler_for(blas::OpKind::kSyrk, cfg);
  for (const auto& s : sampler->sample(200)) {
    EXPECT_EQ(s.m, s.n) << "syrk family shapes are (n, k) with m == n";
    // SYRK footprint: A (n x k) + C (n x n).
    const double footprint =
        static_cast<double>(s.elem_bytes) *
        (static_cast<double>(s.n) * s.k + static_cast<double>(s.n) * s.n);
    EXPECT_LE(footprint, static_cast<double>(cfg.memory_cap_bytes));
    EXPECT_GE(s.n, cfg.dim_min);
    EXPECT_LE(s.n, cfg.dim_max);
    EXPECT_GE(s.k, cfg.dim_min);
    EXPECT_LE(s.k, cfg.dim_max);
  }
}

TEST(SyrkDomain, DeterministicForFixedSeed) {
  DomainConfig cfg;
  cfg.seed = 42;
  const auto a = sampler_for(blas::OpKind::kSyrk, cfg);
  const auto b = sampler_for(blas::OpKind::kSyrk, cfg);
  const auto sa = a->sample(50), sb = b->sample(50);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(sa[i].n, sb[i].n);
    EXPECT_EQ(sa[i].k, sb[i].k);
  }
}

TEST(SyrkDomain, DecorrelatedFromGemmSampler) {
  // Same DomainConfig must not probe identical (n, k) diagonals in both
  // campaigns: the rotation streams use different salts.
  DomainConfig cfg;
  cfg.seed = 1234;
  GemmDomainSampler gemm(cfg);
  const auto syrk = sampler_for(blas::OpKind::kSyrk, cfg);
  const auto gs = gemm.sample(30);
  const auto ss = syrk->sample(30);
  int identical = 0;
  for (std::size_t i = 0; i < 30; ++i) {
    if (gs[i].n == ss[i].n && gs[i].k == ss[i].k) ++identical;
  }
  EXPECT_LT(identical, 5);
}

TEST(SyrkDomain, ImpossibleCapThrowsOnSample) {
  DomainConfig cfg;
  cfg.memory_cap_bytes = 1;
  const auto sampler = sampler_for(blas::OpKind::kSyrk, cfg);
  EXPECT_THROW(sampler->sample(10), std::runtime_error);
}

// ------------------------------------------------- TrsmDomain / SymmDomain

TEST(TrsmDomain, ShapesCarryEquivalentGemmConvention) {
  DomainConfig cfg;
  cfg.memory_cap_bytes = 100ull * 1024 * 1024;
  cfg.dim_max = 40000;
  const auto sampler = sampler_for(blas::OpKind::kTrsm, cfg);
  for (const auto& s : sampler->sample(200)) {
    EXPECT_EQ(s.m, s.k) << "trsm family shapes are (n, m) with m == k";
    // TRSM footprint: A triangle (n x n) + B (n x m).
    const double footprint =
        static_cast<double>(s.elem_bytes) *
        (static_cast<double>(s.m) * s.m + static_cast<double>(s.m) * s.n);
    EXPECT_LE(footprint, static_cast<double>(cfg.memory_cap_bytes));
    EXPECT_GE(s.m, cfg.dim_min);
    EXPECT_LE(s.m, cfg.dim_max);
    EXPECT_GE(s.n, cfg.dim_min);
    EXPECT_LE(s.n, cfg.dim_max);
  }
}

TEST(SymmDomain, ShapesRespectTheLargerFootprint) {
  DomainConfig cfg;
  cfg.memory_cap_bytes = 100ull * 1024 * 1024;
  cfg.dim_max = 40000;
  const auto sampler = sampler_for(blas::OpKind::kSymm, cfg);
  for (const auto& s : sampler->sample(200)) {
    EXPECT_EQ(s.m, s.k) << "symm family shapes are (n, m) with m == k";
    // SYMM footprint: A (n x n) + B and C (n x m each).
    const double footprint =
        static_cast<double>(s.elem_bytes) *
        (static_cast<double>(s.m) * s.m +
         2.0 * static_cast<double>(s.m) * s.n);
    EXPECT_LE(footprint, static_cast<double>(cfg.memory_cap_bytes));
  }
}

TEST(TrsmDomain, DeterministicForFixedSeed) {
  DomainConfig cfg;
  cfg.seed = 42;
  const auto a = sampler_for(blas::OpKind::kTrsm, cfg);
  const auto b = sampler_for(blas::OpKind::kTrsm, cfg);
  const auto sa = a->sample(50), sb = b->sample(50);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(sa[i].m, sb[i].m);
    EXPECT_EQ(sa[i].n, sb[i].n);
  }
}

TEST(TrsmDomain, DecorrelatedFromSiblingSamplers) {
  // One DomainConfig drives every sub-campaign of a mixed gather; the four
  // family samplers must not walk the same diagonals.
  DomainConfig cfg;
  cfg.seed = 1234;
  const auto syrk = sampler_for(blas::OpKind::kSyrk, cfg);
  const auto trsm = sampler_for(blas::OpKind::kTrsm, cfg);
  const auto symm = sampler_for(blas::OpKind::kSymm, cfg);
  const auto ss = syrk->sample(30);
  const auto ts = trsm->sample(30);
  const auto ms = symm->sample(30);
  int syrk_trsm = 0, trsm_symm = 0;
  for (std::size_t i = 0; i < 30; ++i) {
    syrk_trsm += (ss[i].n == ts[i].m && ss[i].k == ts[i].n);
    trsm_symm += (ts[i].m == ms[i].m && ts[i].n == ms[i].n);
  }
  EXPECT_LT(syrk_trsm, 5);
  EXPECT_LT(trsm_symm, 5);
}

TEST(TrsmDomain, ImpossibleCapThrowsOnSample) {
  DomainConfig cfg;
  cfg.memory_cap_bytes = 1;
  const auto trsm = sampler_for(blas::OpKind::kTrsm, cfg);
  EXPECT_THROW(trsm->sample(10), std::runtime_error);
  const auto symm = sampler_for(blas::OpKind::kSymm, cfg);
  EXPECT_THROW(symm->sample(10), std::runtime_error);
}

}  // namespace
}  // namespace adsala::sampling
