// Tests for dataset container, metrics, splits, kNN, grid search, registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>
#include <string>

#include "common/rng.h"
#include "ml/dataset.h"
#include "ml/grid_search.h"
#include "ml/knn.h"
#include "ml/metrics.h"
#include "ml/registry.h"
#include "ml/splits.h"
#include "ml/tree.h"

namespace adsala::ml {
namespace {

// ----------------------------------------------------------------- Dataset

TEST(Dataset, AddRowAndAccess) {
  Dataset data({"a", "b"});
  data.add_row(std::vector<double>{1.0, 2.0}, 10.0);
  data.add_row(std::vector<double>{3.0, 4.0}, 20.0);
  EXPECT_EQ(data.size(), 2u);
  EXPECT_EQ(data.n_features(), 2u);
  EXPECT_DOUBLE_EQ(data.row(1)[0], 3.0);
  EXPECT_DOUBLE_EQ(data.label(1), 20.0);
  EXPECT_EQ(data.column(1), (std::vector<double>{2.0, 4.0}));
}

TEST(Dataset, AddRowWrongWidthThrows) {
  Dataset data({"a", "b"});
  EXPECT_THROW(data.add_row(std::vector<double>{1.0}, 0.0),
               std::invalid_argument);
}

TEST(Dataset, SubsetSelectsRows) {
  Dataset data({"x"});
  for (int i = 0; i < 5; ++i) {
    data.add_row(std::vector<double>{static_cast<double>(i)}, i * 10.0);
  }
  const std::vector<std::size_t> idx = {4, 0, 2};
  const Dataset sub = data.subset(idx);
  EXPECT_EQ(sub.size(), 3u);
  EXPECT_DOUBLE_EQ(sub.label(0), 40.0);
  EXPECT_DOUBLE_EQ(sub.label(2), 20.0);
}

TEST(Dataset, SelectFeaturesReorders) {
  Dataset data({"a", "b", "c"});
  data.add_row(std::vector<double>{1.0, 2.0, 3.0}, 0.0);
  const std::vector<std::size_t> keep = {2, 0};
  const Dataset sel = data.select_features(keep);
  EXPECT_EQ(sel.feature_names(), (std::vector<std::string>{"c", "a"}));
  EXPECT_DOUBLE_EQ(sel.row(0)[0], 3.0);
  EXPECT_DOUBLE_EQ(sel.row(0)[1], 1.0);
}

// ----------------------------------------------------------------- Metrics

TEST(Metrics, KnownValues) {
  const std::vector<double> truth = {1, 2, 3};
  const std::vector<double> pred = {1, 2, 6};
  EXPECT_DOUBLE_EQ(mse(truth, pred), 3.0);
  EXPECT_DOUBLE_EQ(rmse(truth, pred), std::sqrt(3.0));
  EXPECT_DOUBLE_EQ(mae(truth, pred), 1.0);
}

TEST(Metrics, R2PerfectAndMean) {
  const std::vector<double> truth = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(r2_score(truth, truth), 1.0);
  const std::vector<double> mean_pred(4, 2.5);
  EXPECT_NEAR(r2_score(truth, mean_pred), 0.0, 1e-12);
}

TEST(Metrics, NormalizedRmseIsScaleFree) {
  const std::vector<double> truth = {10, 20, 30, 40};
  const std::vector<double> pred = {12, 18, 33, 37};
  std::vector<double> truth10, pred10;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    truth10.push_back(truth[i] * 10);
    pred10.push_back(pred[i] * 10);
  }
  EXPECT_NEAR(normalized_rmse(truth, pred), normalized_rmse(truth10, pred10),
              1e-12);
}

TEST(Metrics, EmptyThrows) {
  const std::vector<double> empty;
  EXPECT_THROW(rmse(empty, empty), std::invalid_argument);
}

// ------------------------------------------------------------------ Splits

TEST(Splits, TrainTestPartition) {
  std::vector<double> labels(100);
  Rng rng(1);
  for (auto& l : labels) l = rng.uniform();
  const auto split = train_test_split(labels, 0.3, 42);
  EXPECT_EQ(split.train.size() + split.test.size(), 100u);
  EXPECT_NEAR(static_cast<double>(split.test.size()), 30.0, 3.0);
  std::set<std::size_t> all(split.train.begin(), split.train.end());
  all.insert(split.test.begin(), split.test.end());
  EXPECT_EQ(all.size(), 100u) << "no index lost or duplicated";
}

TEST(Splits, StratificationBalancesLabelQuantiles) {
  // Heavily skewed labels: stratified test set must span the full range.
  std::vector<double> labels(200);
  Rng rng(2);
  for (auto& l : labels) l = std::exp(rng.uniform(0.0, 10.0));
  const auto split = train_test_split(labels, 0.3, 7, /*stratify=*/true);
  double test_max = 0.0;
  for (std::size_t i : split.test) test_max = std::max(test_max, labels[i]);
  const double global_max = *std::max_element(labels.begin(), labels.end());
  EXPECT_GT(test_max, global_max / 100.0)
      << "stratified test set must include large-label rows";
}

TEST(Splits, BadFractionThrows) {
  std::vector<double> labels(10, 1.0);
  EXPECT_THROW(train_test_split(labels, 0.0, 1), std::invalid_argument);
  EXPECT_THROW(train_test_split(labels, 1.0, 1), std::invalid_argument);
}

TEST(Splits, KfoldPartitionsExactly) {
  std::vector<double> labels(97);
  Rng rng(3);
  for (auto& l : labels) l = rng.uniform();
  const auto folds = kfold(labels, 5, 11);
  ASSERT_EQ(folds.size(), 5u);
  std::set<std::size_t> seen;
  for (const auto& f : folds) {
    EXPECT_EQ(f.train.size() + f.test.size(), 97u);
    for (std::size_t i : f.test) {
      EXPECT_TRUE(seen.insert(i).second) << "index in two validation folds";
    }
  }
  EXPECT_EQ(seen.size(), 97u);
}

TEST(Splits, QuantileStrataAreOrdered) {
  const std::vector<double> labels = {5.0, 1.0, 9.0, 3.0, 7.0};
  const auto strata = quantile_strata(labels, 5);
  EXPECT_LT(strata[1], strata[0]);  // 1.0 in a lower stratum than 5.0
  EXPECT_LT(strata[0], strata[2]);  // 5.0 lower than 9.0
}

// --------------------------------------------------------------------- kNN

TEST(Knn, ExactOnTrainingPointsWithK1) {
  Dataset data({"x", "y"});
  data.add_row(std::vector<double>{0.0, 0.0}, 1.0);
  data.add_row(std::vector<double>{10.0, 0.0}, 2.0);
  data.add_row(std::vector<double>{0.0, 10.0}, 3.0);
  KnnRegressor model({{"k", 1}});
  model.fit(data);
  EXPECT_DOUBLE_EQ(model.predict_one(std::vector<double>{0.1, 0.1}), 1.0);
  EXPECT_DOUBLE_EQ(model.predict_one(std::vector<double>{9.0, 1.0}), 2.0);
}

TEST(Knn, AveragesNeighbours) {
  Dataset data({"x"});
  data.add_row(std::vector<double>{0.0}, 0.0);
  data.add_row(std::vector<double>{1.0}, 10.0);
  data.add_row(std::vector<double>{100.0}, 1000.0);
  KnnRegressor model({{"k", 2}});
  model.fit(data);
  EXPECT_DOUBLE_EQ(model.predict_one(std::vector<double>{0.5}), 5.0);
}

TEST(Knn, DistanceWeightingFavoursCloserPoint) {
  Dataset data({"x"});
  data.add_row(std::vector<double>{0.0}, 0.0);
  data.add_row(std::vector<double>{10.0}, 10.0);
  KnnRegressor model({{"k", 2}, {"distance_weighted", 1.0}});
  model.fit(data);
  EXPECT_LT(model.predict_one(std::vector<double>{1.0}), 5.0);
}

TEST(Knn, KLargerThanDatasetClamps) {
  Dataset data({"x"});
  data.add_row(std::vector<double>{0.0}, 2.0);
  data.add_row(std::vector<double>{1.0}, 4.0);
  KnnRegressor model({{"k", 50}});
  model.fit(data);
  EXPECT_DOUBLE_EQ(model.predict_one(std::vector<double>{0.5}), 3.0);
}

TEST(Knn, SaveLoadRoundTrip) {
  Dataset data({"x"});
  Rng rng(4);
  for (int i = 0; i < 50; ++i) {
    const double x = rng.uniform(-1, 1);
    data.add_row(std::vector<double>{x}, x * x);
  }
  KnnRegressor model({{"k", 3}});
  model.fit(data);
  KnnRegressor restored;
  restored.load(model.save());
  EXPECT_DOUBLE_EQ(restored.predict_one(std::vector<double>{0.3}),
                   model.predict_one(std::vector<double>{0.3}));
}

// A blob whose rows do not fill d columns each would send predict_one past
// the stored rows; load refuses it, and a k below 1, instead.
TEST(Knn, InconsistentBlobIsRejectedAtLoad) {
  const Json bad = Json::parse(
      R"({"model":"knn","params":{"k":3},"d":4,"x":[1,2],"y":[1,2,3]})");
  EXPECT_THROW(load_model(bad), std::invalid_argument);
  const Json zero_k = Json::parse(
      R"({"model":"knn","params":{"k":0},"d":1,"x":[1,2],"y":[1,2]})");
  EXPECT_THROW(load_model(zero_k), std::invalid_argument);
  const Json good = Json::parse(
      R"({"model":"knn","params":{"k":1},"d":2,"x":[1,2,3,4],"y":[5,6]})");
  const auto model = load_model(good);
  EXPECT_EQ(model->input_width(), 2u);
  EXPECT_DOUBLE_EQ(model->predict_one(std::vector<double>{3.0, 4.0}), 6.0);
}

// ------------------------------------------------------------- Grid search

TEST(GridSearch, ExpandGridCartesianProduct) {
  const ParamGrid grid = {{"a", {1, 2}}, {"b", {10, 20, 30}}};
  const auto combos = expand_grid(grid);
  EXPECT_EQ(combos.size(), 6u);
  std::set<std::pair<double, double>> seen;
  for (const auto& c : combos) seen.insert({c.at("a"), c.at("b")});
  EXPECT_EQ(seen.size(), 6u);
}

TEST(GridSearch, EmptyGridGivesOneCombo) {
  EXPECT_EQ(expand_grid({}).size(), 1u);
}

TEST(GridSearch, SelectsDepthMatchingTarget) {
  // Target needs depth >= 3; grid must not pick depth 1.
  Dataset data({"x"});
  Rng rng(6);
  for (int i = 0; i < 400; ++i) {
    const double x = rng.uniform(0.0, 8.0);
    data.add_row(std::vector<double>{x}, std::floor(x));  // 8-step staircase
  }
  DecisionTree proto;
  const auto result = grid_search_cv(
      proto, data, {{"max_depth", {1, 5}}}, 4, 13);
  EXPECT_DOUBLE_EQ(result.best_params.at("max_depth"), 5.0);
  EXPECT_LT(result.best_rmse, 0.5);
  ASSERT_NE(result.best_model, nullptr);
  EXPECT_NEAR(result.best_model->predict_one(std::vector<double>{6.5}), 6.0,
              0.5);
}

TEST(GridSearch, ReportsAllCombos) {
  Dataset data({"x"});
  Rng rng(8);
  for (int i = 0; i < 60; ++i) {
    const double x = rng.uniform(-1, 1);
    data.add_row(std::vector<double>{x}, 2 * x);
  }
  DecisionTree proto;
  const auto result =
      grid_search_cv(proto, data, {{"max_depth", {2, 4, 6}}}, 3, 5);
  EXPECT_EQ(result.all_params.size(), 3u);
  EXPECT_EQ(result.all_rmse.size(), 3u);
  for (double r : result.all_rmse) EXPECT_GE(r, 0.0);
}

// ---------------------------------------------------------------- Registry

TEST(Registry, AllNamesConstructible) {
  for (const auto& name : model_names()) {
    auto model = make_model(name);
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->name(), name);
    EXPECT_NO_THROW(default_grid(name));
  }
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(make_model("svm"), std::invalid_argument);
  EXPECT_THROW(default_grid("nope"), std::invalid_argument);
}

TEST(Registry, CloneCarriesParams) {
  auto model = make_model("decision_tree", {{"max_depth", 3}});
  auto copy = model->clone();
  EXPECT_EQ(copy->name(), "decision_tree");
  EXPECT_DOUBLE_EQ(copy->get_params().at("max_depth"), 3.0);
}

// golden_models.jsonl holds one small fitted blob per model, one per line,
// as save() wrote them before the models shared one model-file frame. A
// load and a save must give those bytes back exactly; no fit runs, so the
// check holds on any compiler.
TEST(Registry, GoldenBlobsSurviveLoadAndSaveByteForByte) {
  std::ifstream in(ADSALA_GOLDEN_MODELS);
  ASSERT_TRUE(in) << ADSALA_GOLDEN_MODELS;
  std::set<std::string> seen;
  for (std::string line; std::getline(in, line);) {
    const Json blob = Json::parse(line);
    const std::string name = blob.at("model").as_string();
    EXPECT_EQ(load_model(blob)->save().dump(), line) << name;
    seen.insert(name);
  }
  const std::vector<std::string> names = model_names();
  EXPECT_EQ(seen, std::set<std::string>(names.begin(), names.end()));
}

TEST(Registry, LoadRefusesAnotherModelsBlobAndMissingParams) {
  const auto tree = make_model("decision_tree");
  Json blob = tree->save();
  blob["model"] = Json("xgboost");
  EXPECT_THROW(tree->load(blob), std::invalid_argument);
  const auto linear = make_model("linear_regression");
  Json no_params = linear->save();
  no_params.as_object().erase("params");
  EXPECT_THROW(load_model(no_params), std::out_of_range);
}

}  // namespace
}  // namespace adsala::ml
