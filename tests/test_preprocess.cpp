// Tests for the preprocessing stack: Yeo-Johnson, scaler, LOF, correlation
// filter, Table-II features, and the full pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "common/rng.h"
#include "common/stats.h"
#include "preprocess/correlation_filter.h"
#include "preprocess/features.h"
#include "preprocess/lof.h"
#include "preprocess/pipeline.h"
#include "preprocess/scaler.h"
#include "preprocess/yeo_johnson.h"

namespace adsala::preprocess {
namespace {

// -------------------------------------------------------------- YeoJohnson

TEST(YeoJohnson, LambdaOneIsIdentityForPositive) {
  for (double x : {0.0, 0.5, 3.0, 100.0}) {
    EXPECT_NEAR(yeo_johnson(x, 1.0), x, 1e-12);
  }
}

TEST(YeoJohnson, LambdaZeroIsLogForPositive) {
  for (double x : {0.1, 1.0, 9.0}) {
    EXPECT_NEAR(yeo_johnson(x, 0.0), std::log1p(x), 1e-12);
  }
}

TEST(YeoJohnson, NegativeBranchLambdaTwo) {
  // lambda = 2 makes the negative branch logarithmic: -log1p(-x).
  EXPECT_NEAR(yeo_johnson(-3.0, 2.0), -std::log1p(3.0), 1e-12);
}

TEST(YeoJohnson, ContinuousAtZero) {
  for (double lambda : {-2.0, 0.0, 0.5, 1.0, 2.0, 3.0}) {
    EXPECT_NEAR(yeo_johnson(1e-12, lambda), yeo_johnson(-1e-12, lambda),
                1e-10);
  }
}

TEST(YeoJohnson, MonotoneIncreasing) {
  for (double lambda : {-1.0, 0.0, 0.7, 1.0, 2.5}) {
    double prev = yeo_johnson(-10.0, lambda);
    for (double x = -9.5; x <= 10.0; x += 0.5) {
      const double y = yeo_johnson(x, lambda);
      EXPECT_GT(y, prev) << "x=" << x << " lambda=" << lambda;
      prev = y;
    }
  }
}

// Property: inverse(transform(x)) == x across lambdas and signs.
class YeoJohnsonRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(YeoJohnsonRoundTrip, InverseRecoversInput) {
  const double lambda = GetParam();
  for (double x : {-50.0, -3.1, -0.7, 0.0, 0.4, 2.0, 77.0}) {
    const double y = yeo_johnson(x, lambda);
    EXPECT_NEAR(yeo_johnson_inverse(y, lambda), x,
                1e-8 * std::max(1.0, std::fabs(x)))
        << "lambda=" << lambda << " x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(Lambdas, YeoJohnsonRoundTrip,
                         ::testing::Values(-2.0, -1.0, -0.5, 0.0, 0.5, 1.0,
                                           1.5, 2.0, 3.0));

TEST(YeoJohnson, MleReducesSkewness) {
  // Log-normal sample: heavily right-skewed; the MLE transform must bring
  // skewness close to zero.
  adsala::Rng rng(1);
  std::vector<double> xs(2000);
  for (auto& x : xs) x = std::exp(rng.normal(0.0, 1.0));
  const double before = adsala::skewness(xs);
  YeoJohnsonTransformer yj;
  yj.fit(xs);
  const auto ys = yj.transform(xs);
  const double after = adsala::skewness(ys);
  EXPECT_GT(before, 2.0);
  EXPECT_LT(std::fabs(after), 0.3);
  EXPECT_LT(yj.lambda(), 0.5) << "log-like lambda expected for exp data";
}

TEST(YeoJohnson, MleOnSymmetricDataNearIdentity) {
  adsala::Rng rng(2);
  std::vector<double> xs(2000);
  for (auto& x : xs) x = rng.normal(5.0, 1.0);
  EXPECT_NEAR(estimate_lambda(xs), 1.0, 0.4);
}

/// The MLE objective written out plainly: each value transformed once for
/// the mean and again for the variance, the log1p term recomputed per call.
double reference_log_likelihood(std::span<const double> xs, double lambda) {
  const auto n = static_cast<double>(xs.size());
  double mean = 0.0;
  for (double x : xs) mean += yeo_johnson(x, lambda);
  mean /= n;
  double var = 0.0;
  double jacobian = 0.0;
  for (double x : xs) {
    const double t = yeo_johnson(x, lambda) - mean;
    var += t * t;
    jacobian += (lambda - 1.0) * std::copysign(std::log1p(std::fabs(x)), x);
  }
  var /= n;
  if (var <= 0.0) var = std::numeric_limits<double>::min();
  return -0.5 * n * std::log(var) + jacobian;
}

/// Golden-section search on [-5, 5] over reference_log_likelihood.
double reference_lambda(std::span<const double> xs) {
  constexpr double kInvPhi = 0.6180339887498949;
  double a = -5.0, b = 5.0;
  double c = b - kInvPhi * (b - a);
  double d = a + kInvPhi * (b - a);
  double fc = reference_log_likelihood(xs, c);
  double fd = reference_log_likelihood(xs, d);
  while (b - a > 1e-4) {
    if (fc > fd) {
      b = d;
      d = c;
      fd = fc;
      c = b - kInvPhi * (b - a);
      fc = reference_log_likelihood(xs, c);
    } else {
      a = c;
      c = d;
      fc = fd;
      d = a + kInvPhi * (b - a);
      fd = reference_log_likelihood(xs, d);
    }
  }
  return 0.5 * (a + b);
}

TEST(YeoJohnson, LambdaMatchesThePlainObjectiveExactly) {
  adsala::Rng rng(6);
  std::vector<double> skewed(500), mixed(500);
  for (auto& x : skewed) x = std::exp(rng.normal(0.0, 1.5));
  for (auto& x : mixed) x = rng.normal(-0.5, 2.0);
  for (const auto& xs : {skewed, mixed}) {
    EXPECT_EQ(estimate_lambda(xs), reference_lambda(xs));
    for (const double lambda : {-1.5, 0.0, 0.7, 2.0}) {
      EXPECT_EQ(yeo_johnson_log_likelihood(xs, lambda),
                reference_log_likelihood(xs, lambda));
    }
  }
}

// ------------------------------------------------------------------ Scaler

TEST(Scaler, TransformsToZeroMeanUnitVar) {
  const std::vector<double> xs = {2, 4, 6, 8};
  StandardScaler sc;
  sc.fit(xs);
  const auto ys = sc.transform(xs);
  EXPECT_NEAR(adsala::mean(ys), 0.0, 1e-12);
  EXPECT_NEAR(adsala::stddev(ys), 1.0, 1e-12);
}

TEST(Scaler, InverseRoundTrip) {
  const std::vector<double> xs = {1.5, -2.0, 7.25};
  StandardScaler sc;
  sc.fit(xs);
  for (double x : xs) {
    EXPECT_NEAR(sc.inverse(sc.transform(x)), x, 1e-12);
  }
}

TEST(Scaler, ConstantColumnIsSafe) {
  const std::vector<double> xs = {3, 3, 3};
  StandardScaler sc;
  sc.fit(xs);
  EXPECT_DOUBLE_EQ(sc.transform(3.0), 0.0);  // no divide-by-zero
}

// --------------------------------------------------------------------- LOF

TEST(Lof, FlagsPlantedOutlier) {
  // Dense unit cluster + one far point.
  adsala::Rng rng(3);
  const std::size_t n = 101, d = 2;
  std::vector<double> rows(n * d);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    rows[i * d] = rng.normal(0.0, 1.0);
    rows[i * d + 1] = rng.normal(0.0, 1.0);
  }
  rows[(n - 1) * d] = 50.0;
  rows[(n - 1) * d + 1] = 50.0;
  const auto scores = lof_scores(rows, n, d, 10);
  EXPECT_GT(scores[n - 1], 3.0) << "outlier must get a large LOF";
  const auto inliers = lof_inliers(rows, n, d, 10, 1.5);
  EXPECT_EQ(std::count(inliers.begin(), inliers.end(), n - 1), 0);
  EXPECT_GT(inliers.size(), 90u) << "cluster members must survive";
}

TEST(Lof, FlagsLocalOutlierBetweenClusters) {
  // Two tight clusters + a point floating between them: statistically not a
  // global outlier, but locally isolated — the case LOF exists for.
  adsala::Rng rng(4);
  const std::size_t per = 60, n = 2 * per + 1, d = 2;
  std::vector<double> rows(n * d);
  for (std::size_t i = 0; i < per; ++i) {
    rows[i * d] = rng.normal(0.0, 0.1);
    rows[i * d + 1] = rng.normal(0.0, 0.1);
    rows[(per + i) * d] = rng.normal(10.0, 0.1);
    rows[(per + i) * d + 1] = rng.normal(0.0, 0.1);
  }
  rows[(n - 1) * d] = 5.0;
  rows[(n - 1) * d + 1] = 0.0;
  const auto scores = lof_scores(rows, n, d, 10);
  EXPECT_GT(scores[n - 1], 2.0);
}

TEST(Lof, UniformDataScoresNearOne) {
  adsala::Rng rng(5);
  const std::size_t n = 200, d = 3;
  std::vector<double> rows(n * d);
  for (auto& v : rows) v = rng.uniform();
  const auto scores = lof_scores(rows, n, d, 15);
  for (double s : scores) {
    EXPECT_GT(s, 0.5);
    EXPECT_LT(s, 2.0);
  }
}

TEST(Lof, DuplicatePointsAreSafe) {
  const std::size_t n = 30, d = 1;
  std::vector<double> rows(n, 1.0);  // all identical
  EXPECT_NO_THROW({
    const auto scores = lof_scores(rows, n, d, 5);
    for (double s : scores) EXPECT_TRUE(std::isfinite(s));
  });
}

/// LOF with every point's distances fully sorted: the neighbourhood is the
/// prefix within the k-distance, in ascending (distance, id) order.
std::vector<double> reference_lof(const std::vector<double>& rows,
                                  std::size_t n, std::size_t d,
                                  std::size_t k) {
  std::vector<std::vector<std::pair<double, std::size_t>>> nbr(n);
  std::vector<double> k_dist(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::pair<double, std::size_t>> dist;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      double s = 0.0;
      for (std::size_t f = 0; f < d; ++f) {
        const double diff = rows[i * d + f] - rows[j * d + f];
        s += diff * diff;
      }
      dist.emplace_back(std::sqrt(s), j);
    }
    std::sort(dist.begin(), dist.end());
    k_dist[i] = dist[k - 1].first;
    for (const auto& p : dist) {
      if (p.first > k_dist[i]) break;
      nbr[i].push_back(p);
    }
  }
  std::vector<double> lrd(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum_reach = 0.0;
    for (const auto& [dist, j] : nbr[i]) {
      sum_reach += std::max(k_dist[j], dist);
    }
    lrd[i] = sum_reach > 0.0
                 ? static_cast<double>(nbr[i].size()) / sum_reach
                 : std::numeric_limits<double>::infinity();
  }
  std::vector<double> scores(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(lrd[i])) continue;
    double sum_ratio = 0.0;
    for (const auto& p : nbr[i]) {
      sum_ratio += std::isfinite(lrd[p.second]) ? lrd[p.second] / lrd[i] : 1e6;
    }
    scores[i] = sum_ratio / static_cast<double>(nbr[i].size());
  }
  return scores;
}

TEST(Lof, TiesAtTheKDistanceMatchAFullSortExactly) {
  // An integer lattice: many neighbours tie at each k-distance. Some points
  // repeat (some more than k times, so their k-distance is 0), and two far
  // points make the lattice's edge non-trivial.
  const std::size_t d = 2;
  std::vector<double> rows;
  for (int x = 0; x < 7; ++x) {
    for (int y = 0; y < 6; ++y) {
      const int copies = (x * 6 + y) % 9 == 0 ? 1 + (x + y) % 7 : 1;
      for (int c = 0; c < copies; ++c) {
        rows.push_back(x);
        rows.push_back(y);
      }
    }
  }
  for (const double far : {20.0, 24.0}) {
    rows.push_back(far);
    rows.push_back(3.0);
  }
  const std::size_t n = rows.size() / d;
  for (const std::size_t k : {1u, 3u, 4u, 5u, 8u, 20u}) {
    EXPECT_EQ(lof_scores(rows, n, d, k), reference_lof(rows, n, d, k))
        << "k=" << k;
  }
}

TEST(Lof, SizeMismatchThrows) {
  std::vector<double> rows(10);
  EXPECT_THROW(lof_scores(rows, 4, 3, 2), std::invalid_argument);
}

// ------------------------------------------------------- CorrelationFilter

TEST(CorrFilter, DropsDuplicateColumn) {
  ml::Dataset data({"x", "x_dup", "indep"});
  adsala::Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.uniform(-1, 1);
    const double z = rng.uniform(-1, 1);
    data.add_row(std::vector<double>{x, x, z}, 0.0);
  }
  const auto keep = correlation_filter(data, 0.8);
  EXPECT_EQ(keep.size(), 2u);
  // Exactly one of {0, 1} survives, and 2 always survives.
  EXPECT_TRUE(std::count(keep.begin(), keep.end(), 2u) == 1);
}

TEST(CorrFilter, KeepsIndependentColumns) {
  ml::Dataset data({"a", "b", "c"});
  adsala::Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    data.add_row(std::vector<double>{rng.uniform(), rng.uniform(),
                                     rng.uniform()},
                 0.0);
  }
  EXPECT_EQ(correlation_filter(data, 0.8).size(), 3u);
}

TEST(CorrFilter, DropsTheMoreConnectedMember) {
  // hub correlates with both spoke1 and spoke2; spokes are uncorrelated with
  // each other. Dropping the hub resolves both pairs at once.
  ml::Dataset data({"spoke1", "hub", "spoke2"});
  adsala::Rng rng(8);
  for (int i = 0; i < 300; ++i) {
    const double s1 = rng.normal();
    const double s2 = rng.normal();
    const double hub = s1 + s2;  // strongly correlated with both
    data.add_row(std::vector<double>{s1, hub, s2}, 0.0);
  }
  const auto keep = correlation_filter(data, 0.6);
  EXPECT_EQ(keep, (std::vector<std::size_t>{0, 2}));
}

TEST(CorrFilter, MatrixIsSymmetricWithUnitDiagonal) {
  ml::Dataset data({"a", "b"});
  adsala::Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    data.add_row(std::vector<double>{rng.uniform(), rng.uniform()}, 0.0);
  }
  const auto corr = correlation_matrix(data);
  EXPECT_DOUBLE_EQ(corr[0], 1.0);
  EXPECT_DOUBLE_EQ(corr[3], 1.0);
  EXPECT_DOUBLE_EQ(corr[1], corr[2]);
}

// ---------------------------------------------------------------- Features

TEST(Features, TableTwoValues) {
  const auto f = make_features(2, 3, 4, 8);
  const auto& names = feature_names();
  ASSERT_EQ(f.size(), names.size());
  EXPECT_DOUBLE_EQ(f[0], 2);        // m
  EXPECT_DOUBLE_EQ(f[3], 8);        // n_threads
  EXPECT_DOUBLE_EQ(f[4], 6);        // m*k
  EXPECT_DOUBLE_EQ(f[5], 8);        // m*n
  EXPECT_DOUBLE_EQ(f[6], 12);       // k*n
  EXPECT_DOUBLE_EQ(f[7], 24);       // m*k*n
  EXPECT_DOUBLE_EQ(f[8], 26);       // sum of areas
  EXPECT_DOUBLE_EQ(f[9], 0.25);     // m/t
  EXPECT_DOUBLE_EQ(f[15], 3.0);     // m*k*n/t
  EXPECT_DOUBLE_EQ(f[16], 3.25);    // total/t
}

TEST(Features, GroupOneIndicesMatchNames) {
  for (std::size_t j : group1_indices()) {
    EXPECT_EQ(feature_names()[j].find("/t"), std::string::npos)
        << "group 1 must not contain per-thread terms";
  }
}

TEST(Features, OpAwareSchemaAppendsOneHots) {
  const auto& names = op_aware_feature_names();
  ASSERT_EQ(names.size(), kNumOpAwareFeatures);
  EXPECT_EQ(std::vector<std::string>(names.begin(),
                                     names.begin() + kNumFeatures),
            feature_names());
  EXPECT_EQ(names[17], "op_gemm");
  EXPECT_EQ(names[18], "op_syrk");
  EXPECT_EQ(names[19], "op_trsm");
  EXPECT_EQ(names[20], "op_symm");
  EXPECT_EQ(names[21], "op_trmm");
  EXPECT_EQ(names[22], "kernel_generic");
  EXPECT_EQ(names[23], "kernel_avx2");
  EXPECT_EQ(names[24], "kernel_avx512");
  EXPECT_EQ(categorical_indices(),
            (std::vector<std::size_t>{17, 18, 19, 20, 21, 22, 23, 24}));
}

TEST(Features, OpAwareValuesEncodeOpAndVariant) {
  const auto f = make_op_aware_features(2, 3, 4, 8, blas::OpKind::kSyrk,
                                        blas::kernels::Variant::kAvx2);
  const auto base = make_features(2, 3, 4, 8);
  for (std::size_t j = 0; j < kNumFeatures; ++j) {
    EXPECT_DOUBLE_EQ(f[j], base[j]) << "numeric prefix must match Table II";
  }
  EXPECT_DOUBLE_EQ(f[17], 0.0);  // op_gemm
  EXPECT_DOUBLE_EQ(f[18], 1.0);  // op_syrk
  EXPECT_DOUBLE_EQ(f[19], 0.0);  // op_trsm
  EXPECT_DOUBLE_EQ(f[20], 0.0);  // op_symm
  EXPECT_DOUBLE_EQ(f[21], 0.0);  // op_trmm
  EXPECT_DOUBLE_EQ(f[22], 0.0);  // kernel_generic
  EXPECT_DOUBLE_EQ(f[23], 1.0);  // kernel_avx2
  EXPECT_DOUBLE_EQ(f[24], 0.0);  // kernel_avx512

  const auto g = make_op_aware_features(2, 3, 4, 8, blas::OpKind::kGemm,
                                        blas::kernels::Variant::kGeneric);
  EXPECT_DOUBLE_EQ(g[17], 1.0);
  EXPECT_DOUBLE_EQ(g[18], 0.0);
  EXPECT_DOUBLE_EQ(g[22], 1.0);
  EXPECT_DOUBLE_EQ(g[23], 0.0);
  EXPECT_DOUBLE_EQ(g[24], 0.0);

  const auto h = make_op_aware_features(2, 3, 4, 8, blas::OpKind::kGemm,
                                        blas::kernels::Variant::kAvx512);
  EXPECT_DOUBLE_EQ(h[22], 0.0);
  EXPECT_DOUBLE_EQ(h[23], 0.0);
  EXPECT_DOUBLE_EQ(h[24], 1.0);

  // Every registered op sets exactly its own indicator — table order.
  for (const blas::OpKind op : blas::all_ops()) {
    const auto row = make_op_aware_features(2, 3, 4, 8, op,
                                            blas::kernels::Variant::kGeneric);
    for (const blas::OpKind other : blas::all_ops()) {
      const std::size_t col =
          kNumFeatures + static_cast<std::size_t>(blas::op_code(other));
      EXPECT_DOUBLE_EQ(row[col], op == other ? 1.0 : 0.0);
    }
  }
}

/// Input column names of every artefact era: numeric only, then the op
/// one-hots as they were registered, with the 2-wide kernel block until the
/// AVX-512 tier, then the current schema.
std::vector<std::string> era_names(std::initializer_list<const char*> ops,
                                   bool kernels) {
  std::vector<std::string> names = feature_names();
  for (const char* op : ops) names.push_back(std::string("op_") + op);
  if (kernels) names.insert(names.end(), {"kernel_generic", "kernel_avx2"});
  return names;
}
const std::vector<std::string> kEra17 = era_names({}, false);
const std::vector<std::string> kEra21 = era_names({"gemm", "syrk"}, true);
const std::vector<std::string> kEra23 =
    era_names({"gemm", "syrk", "trsm", "symm"}, true);
const std::vector<std::string> kEra24 =
    era_names({"gemm", "syrk", "trsm", "symm", "trmm"}, true);

/// The raw row an artefact with these input columns is queried with, in
/// its own column order.
std::vector<double> era_row(const std::vector<std::string>& names,
                            blas::OpKind op, blas::kernels::Variant variant) {
  const auto columns = resolve_columns(names);
  const auto canonical = make_query_row(columns, 2, 3, 4, 8, op, variant);
  std::vector<double> row;
  for (const std::size_t col : columns) row.push_back(canonical[col]);
  return row;
}

TEST(Features, QueryRowsMatchEverySchemaTier) {
  using blas::kernels::Variant;
  // The current 25 columns reproduce make_op_aware_features.
  const auto full = era_row(op_aware_feature_names(), blas::OpKind::kTrsm,
                            Variant::kAvx2);
  const auto expect = make_op_aware_features(2, 3, 4, 8, blas::OpKind::kTrsm,
                                             Variant::kAvx2);
  ASSERT_EQ(full.size(), kNumOpAwareFeatures);
  for (std::size_t j = 0; j < kNumOpAwareFeatures; ++j) {
    EXPECT_DOUBLE_EQ(full[j], expect[j]);
  }

  // PR-4 24-column era: all five op one-hots but the 2-wide kernel pair;
  // an avx512 query is proxied as the nearest tier the artefact knows
  // (avx2), and every op stays first-class.
  const auto pr4 = era_row(kEra24, blas::OpKind::kTrmm, Variant::kAvx512);
  ASSERT_EQ(pr4.size(), 24u);
  EXPECT_DOUBLE_EQ(pr4[21], 1.0) << "op_trmm stays first-class";
  EXPECT_DOUBLE_EQ(pr4[22], 0.0) << "kernel_generic";
  EXPECT_DOUBLE_EQ(pr4[23], 1.0) << "kernel_avx2 (avx512 proxy)";

  // PR-3 23-column era: four op one-hots; TRSM stays first-class but TRMM
  // (registered later) is proxied as a GEMM row.
  const auto pr3_trsm = era_row(kEra23, blas::OpKind::kTrsm,
                                Variant::kGeneric);
  ASSERT_EQ(pr3_trsm.size(), 23u);
  EXPECT_DOUBLE_EQ(pr3_trsm[17], 0.0) << "op_gemm";
  EXPECT_DOUBLE_EQ(pr3_trsm[19], 1.0) << "op_trsm";
  EXPECT_DOUBLE_EQ(pr3_trsm[21], 1.0) << "kernel_generic";
  const auto pr3_trmm = era_row(kEra23, blas::OpKind::kTrmm,
                                Variant::kGeneric);
  ASSERT_EQ(pr3_trmm.size(), 23u);
  EXPECT_DOUBLE_EQ(pr3_trmm[17], 1.0) << "op_gemm (trmm proxy)";
  EXPECT_DOUBLE_EQ(pr3_trmm[19], 0.0) << "op_trsm";
  EXPECT_DOUBLE_EQ(pr3_trmm[20], 0.0) << "op_symm";

  // PR-2 21-column era: gemm/syrk one-hots only; the triangular families
  // are proxied as GEMM rows.
  for (const blas::OpKind op :
       {blas::OpKind::kGemm, blas::OpKind::kTrsm, blas::OpKind::kSymm,
        blas::OpKind::kTrmm}) {
    const auto legacy = era_row(kEra21, op, Variant::kGeneric);
    ASSERT_EQ(legacy.size(), 21u);
    EXPECT_DOUBLE_EQ(legacy[17], 1.0) << "op_gemm (proxy)";
    EXPECT_DOUBLE_EQ(legacy[18], 0.0) << "op_syrk";
    EXPECT_DOUBLE_EQ(legacy[19], 1.0) << "kernel_generic";
    EXPECT_DOUBLE_EQ(legacy[20], 0.0) << "kernel_avx2";
  }
  const auto legacy_syrk = era_row(kEra21, blas::OpKind::kSyrk,
                                   Variant::kGeneric);
  EXPECT_DOUBLE_EQ(legacy_syrk[17], 0.0);
  EXPECT_DOUBLE_EQ(legacy_syrk[18], 1.0);

  // PR-1 17-column era: numeric features only.
  const auto base17 = era_row(kEra17, blas::OpKind::kSymm, Variant::kGeneric);
  const auto base = make_features(2, 3, 4, 8);
  ASSERT_EQ(base17.size(), kNumFeatures);
  for (std::size_t j = 0; j < kNumFeatures; ++j) {
    EXPECT_DOUBLE_EQ(base17[j], base[j]);
  }
}

TEST(Features, WidthShimReturnsTheServedRow) {
  using blas::kernels::Variant;
  // make_query_features(..., width) serves callers that know an artefact
  // only by its width: the full schema and its numeric prefix.
  const auto full = make_query_features(2, 3, 4, 8, blas::OpKind::kSyrk,
                                        Variant::kAuto, kNumOpAwareFeatures);
  const auto served = make_query_row(resolve_columns(op_aware_feature_names()),
                                     2, 3, 4, 8, blas::OpKind::kSyrk,
                                     Variant::kAuto);
  EXPECT_EQ(full, std::vector<double>(served.begin(), served.end()));
  const auto base17 = make_query_features(2, 3, 4, 8, blas::OpKind::kSyrk,
                                          Variant::kAvx2, kNumFeatures);
  const auto base = make_features(2, 3, 4, 8);
  EXPECT_EQ(base17, std::vector<double>(base.begin(), base.end()));
  for (const std::size_t width : {0u, 21u, 24u, 26u}) {
    EXPECT_THROW(make_query_features(2, 3, 4, 8, blas::OpKind::kGemm,
                                     Variant::kGeneric, width),
                 std::invalid_argument)
        << width;
  }
}

TEST(Features, ColumnsResolveByName) {
  const auto columns =
      resolve_columns(std::vector<std::string>{"kernel_avx2", "m", "f0"});
  EXPECT_EQ(columns, (std::vector<std::size_t>{23, 0, kNoSchemaColumn}));
}

TEST(Features, OpServedFirstClassFollowsTheFittedColumns) {
  using blas::OpKind;
  const auto served = [](OpKind op, const std::vector<std::string>& names) {
    return op_served_first_class(op, resolve_columns(names));
  };
  // Current schema: every registered op first-class.
  for (const OpKind op : blas::all_ops()) {
    EXPECT_TRUE(served(op, op_aware_feature_names())) << blas::op_name(op);
  }
  // PR-4 24-column artefact (2-wide kernel block): all five ops first-class.
  for (const OpKind op : blas::all_ops()) {
    EXPECT_TRUE(served(op, kEra24)) << blas::op_name(op);
  }
  // PR-3 23-column artefact: trmm postdates it.
  EXPECT_TRUE(served(OpKind::kTrsm, kEra23));
  EXPECT_TRUE(served(OpKind::kSymm, kEra23));
  EXPECT_FALSE(served(OpKind::kTrmm, kEra23));
  // PR-2 21-column artefact: gemm/syrk only.
  EXPECT_TRUE(served(OpKind::kSyrk, kEra21));
  EXPECT_FALSE(served(OpKind::kTrsm, kEra21));
  // PR-1 17-column artefact: gemm proxy for everything.
  EXPECT_TRUE(served(OpKind::kGemm, kEra17));
  EXPECT_FALSE(served(OpKind::kSyrk, kEra17));
}

// ---------------------------------------------------------------- Pipeline

ml::Dataset skewed_dataset(std::size_t n, std::uint64_t seed) {
  ml::Dataset data({"f0", "f1", "f1_dup"});
  adsala::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double f0 = std::exp(rng.normal(0.0, 1.5));  // right-skewed
    const double f1 = rng.normal(0.0, 2.0);
    data.add_row(std::vector<double>{f0, f1, f1 * 2.0 + 0.1},
                 std::exp(rng.normal(0.0, 1.0)));
  }
  return data;
}

TEST(Pipeline, FitTransformShapesAndScales) {
  Pipeline pipe;
  const auto out = pipe.fit_transform(skewed_dataset(400, 10));
  EXPECT_EQ(out.n_features(), 2u) << "duplicate column must be filtered";
  EXPECT_LE(out.size(), 400u);
  // Transformed surviving columns are near zero-mean.
  for (std::size_t j = 0; j < out.n_features(); ++j) {
    EXPECT_NEAR(adsala::mean(out.column(j)), 0.0, 0.3);
  }
}

TEST(Pipeline, TransformRowMatchesFitTransformForInliers) {
  const auto raw = skewed_dataset(300, 11);
  Pipeline pipe(PipelineConfig{.lof = false});  // keep every row
  const auto out = pipe.fit_transform(raw);
  ASSERT_EQ(out.size(), raw.size());
  for (std::size_t i = 0; i < 20; ++i) {
    const auto row = pipe.transform_row(raw.row(i));
    ASSERT_EQ(row.size(), out.n_features());
    for (std::size_t j = 0; j < row.size(); ++j) {
      EXPECT_NEAR(row[j], out.row(i)[j], 1e-10);
    }
  }
}

TEST(Pipeline, LogLabelRoundTrip) {
  Pipeline pipe;
  EXPECT_NEAR(pipe.inverse_label(pipe.transform_label(0.037)), 0.037, 1e-12);
  Pipeline raw_label(PipelineConfig{.log_label = false});
  EXPECT_DOUBLE_EQ(raw_label.transform_label(5.0), 5.0);
}

TEST(Pipeline, LofRemovesPlantedOutlierRow) {
  auto raw = skewed_dataset(200, 12);
  raw.add_row(std::vector<double>{1e9, 1e9, 1e9}, 1.0);  // absurd row
  Pipeline pipe;
  const auto out = pipe.fit_transform(raw);
  EXPECT_GE(pipe.rows_removed(), 1u);
  EXPECT_LT(out.size(), raw.size());
}

TEST(Pipeline, DisabledStagesAreIdentity) {
  PipelineConfig cfg;
  cfg.yeo_johnson = false;
  cfg.standardize = false;
  cfg.lof = false;
  cfg.corr_filter = false;
  cfg.log_label = false;
  Pipeline pipe(cfg);
  const auto raw = skewed_dataset(100, 13);
  const auto out = pipe.fit_transform(raw);
  ASSERT_EQ(out.size(), raw.size());
  ASSERT_EQ(out.n_features(), raw.n_features());
  for (std::size_t j = 0; j < raw.n_features(); ++j) {
    EXPECT_DOUBLE_EQ(out.row(5)[j], raw.row(5)[j]);
  }
  EXPECT_DOUBLE_EQ(out.label(5), raw.label(5));
}

TEST(Pipeline, SaveLoadRoundTrip) {
  Pipeline pipe;
  const auto raw = skewed_dataset(300, 14);
  pipe.fit_transform(raw);
  Pipeline restored;
  restored.load(pipe.save());
  for (std::size_t i = 0; i < 10; ++i) {
    const auto a = pipe.transform_row(raw.row(i));
    const auto b = restored.transform_row(raw.row(i));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) {
      EXPECT_DOUBLE_EQ(a[j], b[j]);
    }
  }
  EXPECT_EQ(restored.kept_features(), pipe.kept_features());
}

TEST(Pipeline, EmptyDatasetThrows) {
  Pipeline pipe;
  ml::Dataset empty({"x"});
  EXPECT_THROW(pipe.fit_transform(empty), std::invalid_argument);
}

// ------------------------------------------------- Pipeline (categorical)

/// Skewed numeric column + binary one-hot column (alternating 0/1).
ml::Dataset categorical_dataset(std::size_t n, std::uint64_t seed,
                                bool constant_onehot = false) {
  ml::Dataset data({"f0", "is_syrk"});
  adsala::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double onehot = constant_onehot ? 1.0 : static_cast<double>(i % 2);
    data.add_row(std::vector<double>{std::exp(rng.normal(0.0, 1.5)), onehot},
                 std::exp(rng.normal(0.0, 1.0)));
  }
  return data;
}

TEST(Pipeline, CategoricalColumnPassesThroughUntransformed) {
  PipelineConfig cfg;
  cfg.lof = false;  // keep rows aligned with the input
  cfg.categorical = {1};
  Pipeline pipe(cfg);
  const auto raw = categorical_dataset(200, 21);
  const auto out = pipe.fit_transform(raw);
  ASSERT_EQ(out.size(), raw.size());
  const auto& kept = pipe.kept_features();
  const auto it = std::find(kept.begin(), kept.end(), std::size_t{1});
  ASSERT_NE(it, kept.end()) << "non-constant categorical must be kept";
  const auto col = static_cast<std::size_t>(it - kept.begin());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_DOUBLE_EQ(out.row(i)[col], raw.row(i)[1])
        << "one-hot values must not be Yeo-Johnson'd or standardised";
  }
  // transform_row agrees for categorical and numeric alike.
  for (std::size_t i = 0; i < 10; ++i) {
    const auto row = pipe.transform_row(raw.row(i));
    for (std::size_t j = 0; j < row.size(); ++j) {
      EXPECT_NEAR(row[j], out.row(i)[j], 1e-10);
    }
  }
}

TEST(Pipeline, ConstantCategoricalColumnIsDropped) {
  PipelineConfig cfg;
  cfg.categorical = {1};
  Pipeline pipe(cfg);
  pipe.fit_transform(categorical_dataset(200, 22, /*constant_onehot=*/true));
  const auto& kept = pipe.kept_features();
  EXPECT_EQ(std::count(kept.begin(), kept.end(), std::size_t{1}), 0)
      << "a single-op campaign carries no information in the one-hot";
  EXPECT_EQ(std::count(kept.begin(), kept.end(), std::size_t{0}), 1);
}

TEST(Pipeline, RedundantOneHotPairIsPrunedByCorrFilter) {
  // op_gemm + op_syrk == 1 for every row: perfectly anti-correlated, so the
  // correlation filter must keep exactly one of them.
  PipelineConfig cfg;
  cfg.lof = false;
  cfg.categorical = {1, 2};
  Pipeline pipe(cfg);
  ml::Dataset data({"f0", "op_gemm", "op_syrk"});
  adsala::Rng rng(23);
  for (std::size_t i = 0; i < 200; ++i) {
    const double syrk = static_cast<double>(i % 2);
    data.add_row(
        std::vector<double>{std::exp(rng.normal(0.0, 1.0)), 1.0 - syrk, syrk},
        1.0);
  }
  pipe.fit_transform(data);
  const auto& kept = pipe.kept_features();
  const auto n_onehot = std::count_if(kept.begin(), kept.end(),
                                      [](std::size_t j) { return j >= 1; });
  EXPECT_EQ(n_onehot, 1);
}

TEST(Pipeline, CategoricalSurvivesSaveLoad) {
  PipelineConfig cfg;
  cfg.lof = false;
  cfg.categorical = {1};
  Pipeline pipe(cfg);
  const auto raw = categorical_dataset(150, 24);
  pipe.fit_transform(raw);
  Pipeline restored;
  restored.load(pipe.save());
  EXPECT_EQ(restored.config().categorical, cfg.categorical);
  EXPECT_EQ(restored.kept_features(), pipe.kept_features());
  for (std::size_t i = 0; i < 10; ++i) {
    const auto a = pipe.transform_row(raw.row(i));
    const auto b = restored.transform_row(raw.row(i));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) EXPECT_DOUBLE_EQ(a[j], b[j]);
  }
}

TEST(Pipeline, CategoricalIndexOutOfRangeThrows) {
  PipelineConfig cfg;
  cfg.categorical = {7};
  Pipeline pipe(cfg);
  EXPECT_THROW(pipe.fit_transform(categorical_dataset(50, 25)),
               std::invalid_argument);
}

}  // namespace
}  // namespace adsala::preprocess
