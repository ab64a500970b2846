// Tests for the ensemble models: random forest, AdaBoost.R2, XGBoost-style
// GBT, LightGBM-style histogram GBT.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "blas/op.h"
#include "common/json.h"
#include "common/rng.h"
#include "core/executor.h"
#include "core/op_registry.h"
#include "core/trainer.h"
#include "ml/adaboost.h"
#include "ml/forest.h"
#include "ml/gbt.h"
#include "ml/grid_scorer.h"
#include "ml/hist_gbt.h"
#include "ml/metrics.h"
#include "ml/registry.h"
#include "ml/tree.h"
#include "preprocess/features.h"
#include "preprocess/pipeline.h"

namespace adsala::ml {
namespace {

/// Non-linear target with interactions, similar in spirit to a runtime
/// surface: y = x0*x1 + step(x2) + noise.
Dataset make_surface(std::size_t n, std::uint64_t seed, double noise = 0.1) {
  Dataset data({"x0", "x1", "x2"});
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(-2.0, 2.0);
    const double x1 = rng.uniform(-2.0, 2.0);
    const double x2 = rng.uniform(-2.0, 2.0);
    const double y =
        x0 * x1 + (x2 > 0.5 ? 4.0 : 0.0) + rng.normal(0.0, noise);
    data.add_row(std::vector<double>{x0, x1, x2}, y);
  }
  return data;
}

template <typename Model>
double test_nrmse(Model& model, std::uint64_t train_seed = 1,
                  std::uint64_t test_seed = 2) {
  const Dataset train = make_surface(600, train_seed);
  const Dataset test = make_surface(300, test_seed);
  model.fit(train);
  return normalized_rmse(test.labels(), model.predict(test));
}

// ------------------------------------------------------------ RandomForest

TEST(RandomForest, LearnsNonLinearSurface) {
  RandomForest model({{"n_estimators", 60}});
  EXPECT_LT(test_nrmse(model), 0.35);
}

TEST(RandomForest, BeatsSingleTreeOnNoisyData) {
  const Dataset train = make_surface(400, 3, 1.0);
  const Dataset test = make_surface(200, 4, 0.0);
  DecisionTree tree({{"max_depth", 16}});
  RandomForest forest({{"n_estimators", 80}, {"max_depth", 16}});
  tree.fit(train);
  forest.fit(train);
  const double tree_err = rmse(test.labels(), tree.predict(test));
  const double forest_err = rmse(test.labels(), forest.predict(test));
  EXPECT_LT(forest_err, tree_err) << "variance reduction failed";
}

TEST(RandomForest, BuildsRequestedTreeCount) {
  RandomForest model({{"n_estimators", 13}});
  model.fit(make_surface(100, 5));
  EXPECT_EQ(model.n_trees(), 13u);
}

TEST(RandomForest, DeterministicForSeed) {
  RandomForest a({{"n_estimators", 20}, {"seed", 7}});
  RandomForest b({{"n_estimators", 20}, {"seed", 7}});
  const Dataset data = make_surface(300, 6);
  a.fit(data);
  b.fit(data);
  const std::vector<double> x = {0.5, -0.5, 1.0};
  EXPECT_DOUBLE_EQ(a.predict_one(x), b.predict_one(x));
}

TEST(RandomForest, SaveLoadRoundTrip) {
  RandomForest model({{"n_estimators", 10}});
  model.fit(make_surface(150, 8));
  RandomForest restored;
  restored.load(model.save());
  const std::vector<double> x = {1.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(restored.predict_one(x), model.predict_one(x));
}

// --------------------------------------------------------------- AdaBoost

TEST(AdaBoost, LearnsNonLinearSurface) {
  AdaBoostR2 model({{"n_estimators", 40}, {"max_depth", 5}});
  EXPECT_LT(test_nrmse(model), 0.4);
}

TEST(AdaBoost, ImprovesOverItsWeakLearner) {
  const Dataset train = make_surface(500, 9);
  const Dataset test = make_surface(250, 10);
  DecisionTree weak({{"max_depth", 5}});
  AdaBoostR2 boosted({{"n_estimators", 60}, {"max_depth", 5}});
  weak.fit(train);
  boosted.fit(train);
  EXPECT_LT(rmse(test.labels(), boosted.predict(test)),
            rmse(test.labels(), weak.predict(test)));
}

TEST(AdaBoost, StopsEarlyOnPerfectFit) {
  Dataset data({"x"});
  for (int i = 0; i < 50; ++i) {
    data.add_row(std::vector<double>{static_cast<double>(i)},
                 i < 25 ? 1.0 : 2.0);
  }
  AdaBoostR2 model({{"n_estimators", 100}, {"max_depth", 3}});
  model.fit(data);
  EXPECT_LT(model.n_trees(), 100u) << "perfect member should stop boosting";
}

TEST(AdaBoost, SaveLoadRoundTrip) {
  AdaBoostR2 model({{"n_estimators", 15}});
  model.fit(make_surface(150, 11));
  AdaBoostR2 restored;
  restored.load(model.save());
  const std::vector<double> x = {-1.0, 0.5, 0.7};
  EXPECT_DOUBLE_EQ(restored.predict_one(x), model.predict_one(x));
}

// ---------------------------------------------------------------- XGBoost

TEST(Xgboost, LearnsNonLinearSurface) {
  XgbRegressor model({{"n_estimators", 100}, {"max_depth", 4}});
  EXPECT_LT(test_nrmse(model), 0.25);
}

TEST(Xgboost, MoreRoundsReduceTrainError) {
  const Dataset train = make_surface(400, 12);
  XgbRegressor few({{"n_estimators", 5}});
  XgbRegressor many({{"n_estimators", 100}});
  few.fit(train);
  many.fit(train);
  EXPECT_LT(rmse(train.labels(), many.predict(train)),
            rmse(train.labels(), few.predict(train)));
}

TEST(Xgboost, BaseScoreIsLabelMean) {
  Dataset data({"x"});
  data.add_row(std::vector<double>{1.0}, 2.0);
  data.add_row(std::vector<double>{2.0}, 4.0);
  XgbRegressor model({{"n_estimators", 1}});
  model.fit(data);
  EXPECT_DOUBLE_EQ(model.base_score(), 3.0);
}

TEST(Xgboost, GammaPrunesSplits) {
  const Dataset train = make_surface(300, 13, 0.5);
  XgbRegressor loose({{"n_estimators", 20}, {"gamma", 0.0}});
  XgbRegressor strict({{"n_estimators", 20}, {"gamma", 1e9}});
  loose.fit(train);
  strict.fit(train);
  // Infinite gamma forbids every split: prediction collapses to base score.
  const std::vector<double> x = {1.0, -1.0, 2.0};
  EXPECT_DOUBLE_EQ(strict.predict_one(x), strict.base_score());
  EXPECT_NE(loose.predict_one(x), loose.base_score());
}

TEST(Xgboost, SubsamplingIsDeterministicPerSeed) {
  const Dataset data = make_surface(300, 14);
  XgbRegressor a({{"n_estimators", 30}, {"subsample", 0.7},
                  {"colsample", 0.7}, {"seed", 3}});
  XgbRegressor b = a;
  a.fit(data);
  b.fit(data);
  const std::vector<double> x = {0.1, 0.2, 0.3};
  EXPECT_DOUBLE_EQ(a.predict_one(x), b.predict_one(x));
}

TEST(Xgboost, SaveLoadRoundTrip) {
  XgbRegressor model({{"n_estimators", 25}});
  model.fit(make_surface(200, 15));
  XgbRegressor restored;
  restored.load(model.save());
  Rng rng(16);
  for (int i = 0; i < 30; ++i) {
    const std::vector<double> x = {rng.uniform(-2, 2), rng.uniform(-2, 2),
                                   rng.uniform(-2, 2)};
    EXPECT_DOUBLE_EQ(restored.predict_one(x), model.predict_one(x));
  }
}

// Every boosted tree is five parallel node arrays; one short array must be
// refused at load, not read past.
TEST(Xgboost, ShortNodeArrayIsRejectedAtLoad) {
  XgbRegressor model({{"n_estimators", 3}});
  model.fit(make_surface(100, 21));
  Json blob = model.save();
  JsonArray& left = blob["trees"].as_array()[1]["left"].as_array();
  ASSERT_GT(left.size(), 1u);
  left.pop_back();
  try {
    load_model(blob);
    ADD_FAILURE() << "a short 'left' array loaded";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'left'"), std::string::npos)
        << e.what();
  }
}

// --------------------------------------------------------------- LightGBM

TEST(LightGbm, LearnsNonLinearSurface) {
  LightGbmRegressor model({{"n_estimators", 100}});
  EXPECT_LT(test_nrmse(model), 0.25);
}

TEST(LightGbm, RespectsNumLeaves) {
  const Dataset train = make_surface(500, 17);
  LightGbmRegressor stump({{"n_estimators", 5}, {"num_leaves", 2}});
  stump.fit(train);
  // num_leaves=2 means each tree is a single split: 3 nodes.
  EXPECT_EQ(stump.n_trees(), 5u);
}

TEST(LightGbm, MoreLeavesFitTrainBetter) {
  const Dataset train = make_surface(500, 18);
  LightGbmRegressor small({{"n_estimators", 30}, {"num_leaves", 3}});
  LightGbmRegressor big({{"n_estimators", 30}, {"num_leaves", 63}});
  small.fit(train);
  big.fit(train);
  EXPECT_LT(rmse(train.labels(), big.predict(train)),
            rmse(train.labels(), small.predict(train)));
}

TEST(LightGbm, HandlesConstantFeature) {
  Dataset data({"const", "x"});
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.uniform(-1, 1);
    data.add_row(std::vector<double>{5.0, x}, x > 0 ? 1.0 : -1.0);
  }
  LightGbmRegressor model({{"n_estimators", 10}});
  EXPECT_NO_THROW(model.fit(data));
  EXPECT_GT(model.predict_one(std::vector<double>{5.0, 0.9}), 0.0);
}

TEST(LightGbm, SaveLoadRoundTrip) {
  LightGbmRegressor model({{"n_estimators", 20}});
  model.fit(make_surface(200, 20));
  LightGbmRegressor restored;
  restored.load(model.save());
  Rng rng(21);
  for (int i = 0; i < 30; ++i) {
    const std::vector<double> x = {rng.uniform(-2, 2), rng.uniform(-2, 2),
                                   rng.uniform(-2, 2)};
    EXPECT_DOUBLE_EQ(restored.predict_one(x), model.predict_one(x));
  }
}

// Property: every ensemble handles single-feature, few-row datasets.
class EnsembleEdgeTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EnsembleEdgeTest, TinyDatasetDoesNotCrash) {
  Dataset data({"x"});
  data.add_row(std::vector<double>{1.0}, 1.0);
  data.add_row(std::vector<double>{2.0}, 2.0);
  data.add_row(std::vector<double>{3.0}, 3.0);
  auto model = make_model(GetParam(), {{"n_estimators", 5}});
  EXPECT_NO_THROW(model->fit(data));
  const double p = model->predict_one(std::vector<double>{2.0});
  EXPECT_GE(p, 0.5);
  EXPECT_LE(p, 3.5);
}

TEST_P(EnsembleEdgeTest, RegistryRoundTrip) {
  auto model = make_model(GetParam(), {{"n_estimators", 8}});
  model->fit(make_surface(120, 22));
  auto restored = load_model(model->save());
  EXPECT_EQ(restored->name(), model->name());
  const std::vector<double> x = {0.4, 0.6, -0.3};
  EXPECT_DOUBLE_EQ(restored->predict_one(x), model->predict_one(x));
}

INSTANTIATE_TEST_SUITE_P(Models, EnsembleEdgeTest,
                         ::testing::Values("random_forest", "adaboost",
                                           "xgboost", "lightgbm"));

// ------------------------------------------- flat evaluator vs an oracle

/// One tree of a saved ensemble, walked recursively:
/// `x <= threshold ? left : right` down to a leaf.
double oracle_tree(const Json& tree, std::span<const double> x,
                   int node = 0) {
  const auto at = [&](const char* key) -> const Json& {
    return tree.at(key).as_array()[static_cast<std::size_t>(node)];
  };
  const int feature = at("feature").as_int();
  if (feature < 0) return at("value").as_number();
  const bool go_left =
      x[static_cast<std::size_t>(feature)] <= at("threshold").as_number();
  return oracle_tree(tree, x, (go_left ? at("left") : at("right")).as_int());
}

/// The reference prediction of a saved ensemble, each model's combine step
/// written out plainly: boosted sums from base_score in tree order, the
/// forest's mean, AdaBoost.R2's weighted median.
double oracle(const Json& blob, std::span<const double> x) {
  const std::string name = blob.at("model").as_string();
  const JsonArray& trees = blob.at("trees").as_array();
  if (name == "xgboost" || name == "lightgbm") {
    double acc = blob.at("base_score").as_number();
    for (const Json& tree : trees) acc += oracle_tree(tree, x);
    return acc;
  }
  if (name == "random_forest") {
    double sum = 0.0;
    for (const Json& tree : trees) sum += oracle_tree(tree, x);
    return sum / static_cast<double>(trees.size());
  }
  const std::vector<double> weights = blob.at("beta_log").to_doubles();
  std::vector<std::pair<double, double>> pred;
  for (std::size_t t = 0; t < trees.size(); ++t) {
    pred.emplace_back(oracle_tree(trees[t], x), weights[t]);
  }
  std::sort(pred.begin(), pred.end());
  double total = 0.0;
  for (const auto& [p, w] : pred) total += w;
  double acc = 0.0;
  for (const auto& [p, w] : pred) {
    acc += w;
    if (acc >= 0.5 * total) return p;
  }
  return pred.back().first;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// n_rows rows of the surface's three columns, every fifth value replaced
/// by NaN, +inf or -inf in turn.
std::vector<double> probe_rows(std::size_t n_rows, std::uint64_t seed) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double specials[] = {std::nan(""), kInf, -kInf};
  Rng rng(seed);
  std::vector<double> rows(n_rows * 3);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i] = i % 5 == 4 ? specials[(i / 5) % 3] : rng.uniform(-3.0, 3.0);
  }
  return rows;
}

void expect_matches_oracle(const Regressor& model) {
  const Json saved = model.save();
  for (const std::size_t n_rows : {1u, 4u, 17u, 65u}) {
    const std::vector<double> rows = probe_rows(n_rows, 100 + n_rows);
    std::vector<double> grid(n_rows);
    model.predict_grid(rows, n_rows, grid);
    for (std::size_t g = 0; g < n_rows; ++g) {
      const std::span<const double> x(rows.data() + g * 3, 3);
      const double want = oracle(saved, x);
      EXPECT_TRUE(same_bits(model.predict_one(x), want))
          << model.name() << " G=" << n_rows << " g=" << g;
      EXPECT_TRUE(same_bits(grid[g], want))
          << model.name() << " G=" << n_rows << " g=" << g;
    }
  }
}

class FlatEvaluatorTest : public ::testing::TestWithParam<const char*> {};

TEST_P(FlatEvaluatorTest, FittedAndReloadedModelsMatchTheOracle) {
  auto model = make_model(GetParam(), {{"n_estimators", 40}});
  model->fit(make_surface(300, 23, 0.2));
  expect_matches_oracle(*model);

  const std::string text = model->save().dump();
  auto restored = load_model(Json::parse(text));
  expect_matches_oracle(*restored);
  EXPECT_EQ(restored->save().dump(), text) << "save() must survive a load";
}

TEST_P(FlatEvaluatorTest, DatasetPredictionMatchesPredictOne) {
  auto model = make_model(GetParam(), {{"n_estimators", 20}});
  const Dataset data = make_surface(200, 24);
  model->fit(data);
  const std::vector<double> batch = model->predict(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_TRUE(same_bits(batch[i], model->predict_one(data.row(i))));
  }
}

INSTANTIATE_TEST_SUITE_P(Models, FlatEvaluatorTest,
                         ::testing::Values("random_forest", "adaboost",
                                           "xgboost", "lightgbm"));

// ------------------------------------------ byte-identical tree builders

/// Shaped like gather output: each (m, k, n) shape timed at 4 thread counts,
/// so the shape columns hold runs of 4 tied values, plus a constant column.
Dataset make_gather_like(std::size_t n_shapes, std::uint64_t seed) {
  Dataset data({"m", "k", "n", "threads", "flops_per_thread", "const"});
  Rng rng(seed);
  for (std::size_t s = 0; s < n_shapes; ++s) {
    const auto m = static_cast<double>(rng.range(1, 64) * 32);
    const auto k = static_cast<double>(rng.range(1, 64) * 32);
    const auto n = static_cast<double>(rng.range(1, 64) * 32);
    for (const double t : {1.0, 2.0, 3.0, 4.0}) {
      const double y = std::log(m * k * n / t + 4.0e5 * t) +
                       rng.normal(0.0, 0.05);
      data.add_row(std::vector<double>{m, k, n, t, m * k * n / t, 1.0}, y);
    }
  }
  return data;
}

/// FNV-1a 64 of a string.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// The constants were recorded by running this test against the builders as
// they were before the presorted-column split search (each node sorting its
// own (value, row) list), default Release build: the presorted search must
// reproduce those models byte for byte. They hold for the default build; an
// ADSALA_NATIVE build may contract multiply-adds into FMAs and differ.
TEST(TreeBuilders, SavedModelsAreByteIdenticalToPerNodeSorting) {
  const Dataset data = make_gather_like(150, 29);
  std::vector<double> weights(data.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = i % 7 == 3 ? 0.0 : 1.0 + static_cast<double>(i % 3);
  }
  const auto fitted = [&](const char* name, const Params& params) {
    auto model = make_model(name, params);
    model->fit(data);
    return model->save().dump();
  };
  DecisionTree weighted;
  weighted.fit_weighted(data, weights);

  const std::pair<const char*, std::string> dumps[] = {
      {"decision_tree", fitted("decision_tree", {})},
      {"decision_tree max_features=0.5",
       fitted("decision_tree", {{"max_features", 0.5}})},
      {"decision_tree fit_weighted", weighted.save().dump()},
      {"random_forest", fitted("random_forest", {{"n_estimators", 20}})},
      {"adaboost", fitted("adaboost", {})},
      {"xgboost", fitted("xgboost", {{"n_estimators", 60}})},
      {"xgboost subsampled",
       fitted("xgboost", {{"n_estimators", 60},
                          {"subsample", 0.7},
                          {"colsample", 0.5},
                          {"min_child_weight", 3},
                          {"gamma", 0.01}})},
      {"lightgbm", fitted("lightgbm", {{"n_estimators", 60}})},
  };
  const std::uint64_t expected[] = {
      0x1bde83194b35a7c6ull,  // decision_tree
      0xb7f4589beded211cull,  // decision_tree max_features=0.5
      0xa256c65198604fc7ull,  // decision_tree fit_weighted
      0xb4b7213a5536ae7eull,  // random_forest
      0xbbeab0414c1b0028ull,  // adaboost
      0x04c8278392d89acaull,  // xgboost
      0x52a480cd9219e17eull,  // xgboost subsampled
      0x2e90c423c95ed46dull,  // lightgbm
  };
  for (std::size_t i = 0; i < std::size(dumps); ++i) {
    EXPECT_EQ(fnv1a(dumps[i].second), expected[i])
        << dumps[i].first << ": 0x" << std::hex << fnv1a(dumps[i].second);
  }
}

// ------------------------------------------------ leaf-mask grid scorer

/// A dimension log-uniform over [1, hi], as the sampled domains spread
/// them.
long log_uniform_dim(Rng& rng, double hi) {
  return static_cast<long>(std::exp(rng.uniform(0.0, std::log(hi))));
}

/// Gather-shaped op-aware rows: every shape of every op timed at each
/// thread count of `grid`, with a runtime-like label. The kernel columns
/// are constant (one variant), as in a single-tier campaign.
Dataset make_op_gather(std::span<const int> grid, std::size_t n_shapes,
                       std::uint64_t seed) {
  Dataset data(preprocess::op_aware_feature_names());
  Rng rng(seed);
  for (std::size_t s = 0; s < n_shapes; ++s) {
    const long x = log_uniform_dim(rng, 8000), y = log_uniform_dim(rng, 8000),
               z = log_uniform_dim(rng, 8000);
    for (const blas::OpKind op : blas::all_ops()) {
      const simarch::GemmShape shape =
          core::op_traits(op).to_shape(x, y, z, 4);
      const double m = static_cast<double>(shape.m);
      const double k = static_cast<double>(shape.k);
      const double n = static_cast<double>(shape.n);
      const double weight = 1.0 + 0.3 * blas::op_code(op);
      for (const int p : grid) {
        const double t = static_cast<double>(p);
        const auto row = preprocess::make_op_aware_features(
            m, k, n, t, op, blas::kernels::Variant::kGeneric);
        const double y_runtime = weight * m * k * n / (t * 2e9) +
                                 2e-6 * t + (m * k + k * n) * 1e-10 * t;
        data.add_row(row, std::log(y_runtime) + rng.normal(0.0, 0.03));
      }
    }
  }
  return data;
}

/// Fits a pipeline (LOF off, to keep the fit cheap) on `raw`.
preprocess::Pipeline fit_pipeline(const Dataset& raw, bool corr_filter,
                                  Dataset* transformed) {
  preprocess::PipelineConfig cfg;
  cfg.lof = false;
  cfg.corr_filter = corr_filter;
  cfg.categorical = preprocess::categorical_indices();
  preprocess::Pipeline pipeline(cfg);
  *transformed = pipeline.fit_transform(raw);
  return pipeline;
}

struct BoostedCase {
  const char* name;
  Params params;
};

/// xgboost and lightgbm at their defaults and at a tuned-grid point
/// (ml::default_grid).
const BoostedCase kBoosted[] = {
    {"xgboost", {}},
    {"xgboost", {{"n_estimators", 150}, {"max_depth", 4},
                 {"learning_rate", 0.05}}},
    {"lightgbm", {}},
    {"lightgbm", {{"n_estimators", 150}, {"num_leaves", 63},
                  {"learning_rate", 0.05}}},
};

bool same_bytes(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// The masks answer every grid query with the same bits as predict_grid on
// the grid's rows: both thread grids, the correlation filter on (only
// n_threads varies across the grid) and off (the x/t columns vary too),
// all five ops at both element sizes.
TEST(GridScorer, BitIdenticalToPredictGridThroughThePipeline) {
  const std::vector<int> small_grid = {1, 2, 3, 4};
  const std::vector<int> wide_grid = core::default_thread_grid(256);
  ASSERT_EQ(wide_grid.size(), 21u);
  std::size_t row_sets = 0;
  for (const auto* grid : {&small_grid, &wide_grid}) {
    const Dataset raw = make_op_gather(*grid, grid->size() > 4 ? 24 : 80, 41);
    for (const bool corr_filter : {true, false}) {
      Dataset train;
      const preprocess::Pipeline pipeline =
          fit_pipeline(raw, corr_filter, &train);
      for (const BoostedCase& c : kBoosted) {
        SCOPED_TRACE(std::string(c.name) + " grid " +
                     std::to_string(grid->size()) + " corr_filter " +
                     (corr_filter ? "on" : "off"));
        auto model = make_model(c.name, c.params);
        model->fit(train);
        const core::GridEvaluator evaluator =
            core::make_grid_evaluator(*model, pipeline, *grid);
        ASSERT_NE(evaluator.masks, nullptr) << evaluator.rows_reason;
        // With the filter on, only n_threads survives of the thread
        // columns; with it off, the x/t columns are scored per point.
        EXPECT_EQ(evaluator.point_pos.empty(), corr_filter);

        Rng rng(7);
        std::vector<double> masks(grid->size()), rows(grid->size());
        const std::size_t n_sets = grid->size() > 4 ? 700 : 2200;
        for (std::size_t i = 0; i < n_sets; ++i, ++row_sets) {
          const blas::OpKind op = blas::all_ops()[i % blas::kNumOps];
          const int elem = (i / blas::kNumOps) % 2 == 0 ? 4 : 8;
          const simarch::GemmShape shape = core::op_traits(op).to_shape(
              log_uniform_dim(rng, 20000), log_uniform_dim(rng, 20000),
              log_uniform_dim(rng, 20000), elem);
          core::score_thread_grid(*model, pipeline, shape, *grid, op,
                                  blas::kernels::Variant::kAuto, &evaluator,
                                  masks);
          core::score_thread_grid(*model, pipeline, shape, *grid, op,
                                  blas::kernels::Variant::kAuto, nullptr,
                                  rows);
          ASSERT_TRUE(same_bytes(masks, rows))
              << blas::op_name(op) << " " << shape.m << "x" << shape.k
              << "x" << shape.n;
        }
      }
    }
  }
  EXPECT_GE(row_sets, 20000u);
}

/// Every split threshold of a saved tree model, per input column.
std::vector<std::vector<double>> thresholds_by_column(const Regressor& model,
                                                      std::size_t width) {
  std::vector<std::vector<double>> out(width);
  const Json blob = model.save();
  for (const Json& tree : blob.at("trees").as_array()) {
    const auto& features = tree.at("feature").as_array();
    const auto& thresholds = tree.at("threshold").as_array();
    for (std::size_t i = 0; i < features.size(); ++i) {
      const int f = features[i].as_int();
      if (f >= 0) {
        out[static_cast<std::size_t>(f)].push_back(thresholds[i].as_number());
      }
    }
  }
  return out;
}

/// A value that lands on the edges of `column`'s splits: one of its
/// thresholds exactly, a neighbour of one, +-inf, NaN, or an ordinary
/// value.
double edge_value(Rng& rng, const std::vector<double>& thresholds) {
  const double pick = thresholds.empty()
                          ? 0.0
                          : thresholds[static_cast<std::size_t>(rng.range(
                                0, static_cast<long>(thresholds.size()) - 1))];
  switch (rng.range(0, 7)) {
    case 0:
    case 1: return pick;
    case 2: return std::nextafter(pick, std::numeric_limits<double>::infinity());
    case 3: return std::nextafter(pick, -std::numeric_limits<double>::infinity());
    case 4: return std::numeric_limits<double>::infinity();
    case 5: return -std::numeric_limits<double>::infinity();
    case 6: return std::numeric_limits<double>::quiet_NaN();
    default: return rng.uniform(-4000.0, 70000.0);
  }
}

// Values exactly equal to a threshold stay left, NaN goes right at every
// split, and +-inf rank past or before every threshold, exactly as the
// row walk treats them; in shared, fixed and per-point columns alike.
TEST(GridScorer, ThresholdTiesInfinitiesAndNaNMatchTheRowWalk) {
  const Dataset data = make_gather_like(150, 31);  // has a constant column
  const std::size_t width = data.n_features();
  for (const BoostedCase& c : kBoosted) {
    SCOPED_TRACE(c.name);
    auto model = make_model(c.name, c.params);
    model->fit(data);
    const auto thresholds = thresholds_by_column(*model, width);
    ASSERT_FALSE(thresholds[3].empty()) << "no split on the threads column";
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();

    std::vector<GridLayout> layouts(4);
    layouts[0].n_points = 4;  // n_threads fixed, one per-point column
    layouts[0].fixed_cols = {3};
    layouts[0].fixed_values = {1.0, 2.0, 3.0, 4.0};
    layouts[0].point_cols = {4};
    layouts[1] = layouts[0];  // fixed values on the edges
    layouts[1].fixed_values = {thresholds[3].front(), -inf, inf, nan};
    layouts[2].n_points = 5;  // everything thread-like per point
    layouts[2].point_cols = {4, 3};
    layouts[3].n_points = 2;  // nothing varies
    for (const GridLayout& layout : layouts) {
      std::string why;
      const auto scorer = model->grid_scorer(layout, &why);
      ASSERT_NE(scorer, nullptr) << why;
      const std::size_t g_n = layout.n_points;
      const std::size_t p_n = layout.point_cols.size();
      Rng rng(11);
      std::vector<double> shared(width), points(g_n * p_n), rows(g_n * width);
      std::vector<double> masks(g_n), walked(g_n);
      for (int set = 0; set < 1500; ++set) {
        for (std::size_t j = 0; j < width; ++j) {
          shared[j] = edge_value(rng, thresholds[j]);
        }
        for (std::size_t g = 0; g < g_n; ++g) {
          double* row = rows.data() + g * width;
          std::copy(shared.begin(), shared.end(), row);
          for (std::size_t i = 0; i < layout.fixed_cols.size(); ++i) {
            row[layout.fixed_cols[i]] =
                layout.fixed_values[g * layout.fixed_cols.size() + i];
          }
          for (std::size_t i = 0; i < p_n; ++i) {
            points[g * p_n + i] =
                edge_value(rng, thresholds[layout.point_cols[i]]);
            row[layout.point_cols[i]] = points[g * p_n + i];
          }
        }
        scorer->score(shared, points, masks);
        model->predict_grid(rows, g_n, walked);
        ASSERT_TRUE(same_bytes(masks, walked)) << "row set " << set;
      }
    }
  }
}

/// An xgboost model whose first tree is a right-leaning chain of
/// `leaves` leaves splitting columns 0-2 (m, k, n), followed by a stump on
/// column 3 (the thread count).
std::unique_ptr<Regressor> chain_model(int leaves) {
  JsonArray trees;
  auto add_tree = [&](const std::vector<TreeNode>& nodes) {
    JsonArray f, thr, val, l, r;
    for (const TreeNode& node : nodes) {
      f.emplace_back(node.feature);
      thr.emplace_back(node.threshold);
      val.emplace_back(node.value);
      l.emplace_back(node.left);
      r.emplace_back(node.right);
    }
    Json tree;
    tree["feature"] = Json(std::move(f));
    tree["threshold"] = Json(std::move(thr));
    tree["value"] = Json(std::move(val));
    tree["left"] = Json(std::move(l));
    tree["right"] = Json(std::move(r));
    trees.push_back(std::move(tree));
  };
  // Node 2i is split i: x <= threshold goes to its leaf, node 2i + 1, and
  // the rest on to node 2i + 2, the next split or the last leaf.
  std::vector<TreeNode> chain;
  for (int i = 0; i + 1 < leaves; ++i) {
    TreeNode split;
    split.feature = i % 3;
    split.threshold = 32.0 * (i + 1);
    split.left = 2 * i + 1;
    split.right = 2 * i + 2;
    TreeNode leaf;
    leaf.value = 0.01 * i;
    chain.push_back(split);
    chain.push_back(leaf);
  }
  TreeNode last;
  last.value = -1.0;
  chain.push_back(last);
  add_tree(chain);
  TreeNode stump;
  stump.feature = 3;
  stump.threshold = 2.5;
  stump.left = 1;
  stump.right = 2;
  TreeNode lo, hi;
  lo.value = 0.25;
  hi.value = -0.125;
  add_tree({stump, lo, hi});

  Json blob;
  blob["model"] = Json("xgboost");
  blob["params"] = Json(JsonObject{});
  blob["base_score"] = Json(0.5);
  blob["trees"] = Json(std::move(trees));
  return load_model(blob);
}

// 64 leaves fit the masks; one tree of 65 sends the model to the row path,
// which gives the same answers.
TEST(GridScorer, SixtyFiveLeafTreeFallsBackToTheRowPath) {
  GridLayout layout;
  layout.n_points = 4;
  layout.fixed_cols = {3};
  layout.fixed_values = {1.0, 2.0, 3.0, 4.0};
  std::string why;
  EXPECT_NE(chain_model(64)->grid_scorer(layout, &why), nullptr) << why;
  EXPECT_EQ(chain_model(65)->grid_scorer(layout, &why), nullptr);
  EXPECT_NE(why.find("more than 64 leaves"), std::string::npos) << why;

  // Through the serving path: a pipeline over the m, k, n, n_threads
  // columns (no transforms), so the chain reads raw dimensions.
  Dataset raw(std::vector<std::string>{"m", "k", "n", "n_threads"});
  Rng rng(3);
  for (int s = 0; s < 60; ++s) {
    const double m = static_cast<double>(rng.range(1, 2000));
    const double k = static_cast<double>(rng.range(1, 2000));
    const double n = static_cast<double>(rng.range(1, 2000));
    for (const double t : {1.0, 2.0, 3.0, 4.0}) {
      raw.add_row(std::vector<double>{m, k, n, t}, 1.0);
    }
  }
  preprocess::PipelineConfig cfg;
  cfg.yeo_johnson = false;
  cfg.standardize = false;
  cfg.lof = false;
  cfg.corr_filter = false;
  preprocess::Pipeline pipeline(cfg);
  (void)pipeline.fit_transform(raw);
  ASSERT_EQ(pipeline.kept_features().size(), 4u);
  const std::vector<int> grid = {1, 2, 3, 4};
  for (const int leaves : {64, 65}) {
    const auto model = chain_model(leaves);
    const core::GridEvaluator evaluator =
        core::make_grid_evaluator(*model, pipeline, grid);
    EXPECT_EQ(evaluator.masks != nullptr, leaves == 64)
        << evaluator.rows_reason;
    std::vector<double> served(4), rows(4);
    for (int i = 0; i < 2000; ++i) {
      const simarch::GemmShape shape{rng.range(1, 2200), rng.range(1, 2200),
                                     rng.range(1, 2200), 4};
      core::score_thread_grid(*model, pipeline, shape, grid,
                              blas::OpKind::kGemm,
                              blas::kernels::Variant::kAuto, &evaluator,
                              served);
      core::score_thread_grid(*model, pipeline, shape, grid,
                              blas::OpKind::kGemm,
                              blas::kernels::Variant::kAuto, nullptr, rows);
      ASSERT_TRUE(same_bytes(served, rows)) << leaves << " leaves";
    }
  }
}

// The models outside the scope keep the row path and say why.
TEST(GridScorer, OnlyBoostedModelsBuildOne) {
  GridLayout layout;
  layout.n_points = 2;
  for (const char* name : {"decision_tree", "random_forest", "adaboost",
                           "linear_regression", "knn"}) {
    auto model = make_model(name, {{"n_estimators", 5}});
    model->fit(make_gather_like(20, 5));
    std::string why;
    EXPECT_EQ(model->grid_scorer(layout, &why), nullptr) << name;
    EXPECT_NE(why.find(name), std::string::npos) << why;
  }
}

}  // namespace
}  // namespace adsala::ml
