// Tests for the CART decision tree: exact fits, hyper-parameter limits,
// weighted fitting, and invariant properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/json.h"
#include "common/rng.h"
#include "ml/metrics.h"
#include "ml/tree.h"

namespace adsala::ml {
namespace {

Dataset step_function_data() {
  // y = 1 for x < 0, y = 5 for x >= 0: one split suffices.
  Dataset data({"x"});
  for (int i = -10; i < 10; ++i) {
    data.add_row(std::vector<double>{static_cast<double>(i)},
                 i < 0 ? 1.0 : 5.0);
  }
  return data;
}

Dataset noisy_surface(std::size_t n, std::uint64_t seed, double noise = 0.0) {
  Dataset data({"a", "b"});
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(-3.0, 3.0);
    const double b = rng.uniform(-3.0, 3.0);
    const double y =
        std::sin(a) * 2.0 + (b > 0 ? 3.0 : -1.0) + rng.normal(0.0, noise);
    data.add_row(std::vector<double>{a, b}, y);
  }
  return data;
}

TEST(DecisionTree, FitsStepFunctionExactly) {
  DecisionTree tree({{"max_depth", 3}});
  tree.fit(step_function_data());
  EXPECT_DOUBLE_EQ(tree.predict_one(std::vector<double>{-5.0}), 1.0);
  EXPECT_DOUBLE_EQ(tree.predict_one(std::vector<double>{5.0}), 5.0);
}

TEST(DecisionTree, DepthZeroPredictsMean) {
  DecisionTree tree({{"max_depth", 0}});
  tree.fit(step_function_data());
  EXPECT_DOUBLE_EQ(tree.predict_one(std::vector<double>{0.0}), 3.0);
  EXPECT_EQ(tree.nodes().size(), 1u);
}

TEST(DecisionTree, RespectsMaxDepth) {
  for (int depth : {1, 2, 4, 6}) {
    DecisionTree tree({{"max_depth", static_cast<double>(depth)}});
    tree.fit(noisy_surface(500, 3));
    EXPECT_LE(tree.depth(), static_cast<std::size_t>(depth + 1))
        << "configured depth " << depth;
  }
}

TEST(DecisionTree, MinSamplesLeafLimitsLeafSize) {
  DecisionTree tree({{"max_depth", 20}, {"min_samples_leaf", 50}});
  const Dataset data = noisy_surface(200, 5);
  tree.fit(data);
  // With >= 50 samples per leaf and 200 rows, at most 4 leaves are possible.
  std::size_t leaves = 0;
  for (const auto& node : tree.nodes()) leaves += node.is_leaf();
  EXPECT_LE(leaves, 4u);
}

TEST(DecisionTree, PureNodeStopsSplitting) {
  Dataset data({"x"});
  for (int i = 0; i < 20; ++i) {
    data.add_row(std::vector<double>{static_cast<double>(i)}, 7.0);
  }
  DecisionTree tree({{"max_depth", 10}});
  tree.fit(data);
  EXPECT_EQ(tree.nodes().size(), 1u) << "constant labels need no splits";
  EXPECT_DOUBLE_EQ(tree.predict_one(std::vector<double>{3.0}), 7.0);
}

TEST(DecisionTree, WeightsSteerTheFit) {
  // Same x -> two conflicting labels; weights decide the leaf value.
  Dataset data({"x"});
  data.add_row(std::vector<double>{1.0}, 0.0);
  data.add_row(std::vector<double>{1.0}, 10.0);
  DecisionTree tree({{"max_depth", 2}});
  const std::vector<double> w = {9.0, 1.0};
  tree.fit_weighted(data, w);
  EXPECT_DOUBLE_EQ(tree.predict_one(std::vector<double>{1.0}), 1.0);
}

TEST(DecisionTree, ZeroWeightRowsAreIgnored) {
  Dataset data({"x"});
  for (int i = 0; i < 10; ++i) {
    data.add_row(std::vector<double>{static_cast<double>(i)}, 2.0);
  }
  data.add_row(std::vector<double>{100.0}, 1000.0);  // weighted out
  std::vector<double> w(11, 1.0);
  w[10] = 0.0;
  DecisionTree tree({{"max_depth", 4}});
  tree.fit_weighted(data, w);
  EXPECT_DOUBLE_EQ(tree.predict_one(std::vector<double>{100.0}), 2.0);
}

TEST(DecisionTree, WeightCountMismatchThrows) {
  Dataset data({"x"});
  data.add_row(std::vector<double>{1.0}, 1.0);
  DecisionTree tree;
  const std::vector<double> w = {1.0, 1.0};
  EXPECT_THROW(tree.fit_weighted(data, w), std::invalid_argument);
}

TEST(DecisionTree, DeterministicForFixedSeed) {
  const Dataset data = noisy_surface(300, 7, 0.2);
  DecisionTree a({{"seed", 5}, {"max_features", 0.5}});
  DecisionTree b({{"seed", 5}, {"max_features", 0.5}});
  a.fit(data);
  b.fit(data);
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> x = {rng.uniform(-3, 3), rng.uniform(-3, 3)};
    EXPECT_DOUBLE_EQ(a.predict_one(x), b.predict_one(x));
  }
}

TEST(DecisionTree, SaveLoadRoundTrip) {
  DecisionTree tree({{"max_depth", 6}});
  tree.fit(noisy_surface(200, 11));
  DecisionTree restored;
  restored.load(tree.save());
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> x = {rng.uniform(-3, 3), rng.uniform(-3, 3)};
    EXPECT_DOUBLE_EQ(restored.predict_one(x), tree.predict_one(x));
  }
}

TEST(DecisionTree, UnfittedPredictsZero) {
  DecisionTree tree;
  EXPECT_DOUBLE_EQ(tree.predict_one(std::vector<double>{1.0}), 0.0);
}

// Property suite over random datasets: structural invariants.
class TreePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreePropertyTest, PredictionsStayWithinLabelHull) {
  const Dataset data = noisy_surface(250, GetParam(), 0.5);
  DecisionTree tree({{"max_depth", 8}});
  tree.fit(data);
  const double lo =
      *std::min_element(data.labels().begin(), data.labels().end());
  const double hi =
      *std::max_element(data.labels().begin(), data.labels().end());
  Rng rng(GetParam() + 100);
  for (int i = 0; i < 100; ++i) {
    const std::vector<double> x = {rng.uniform(-5, 5), rng.uniform(-5, 5)};
    const double p = tree.predict_one(x);
    EXPECT_GE(p, lo - 1e-9);
    EXPECT_LE(p, hi + 1e-9);
  }
}

TEST_P(TreePropertyTest, DeeperTreesFitTrainDataBetter) {
  const Dataset data = noisy_surface(300, GetParam(), 0.3);
  DecisionTree shallow({{"max_depth", 2}});
  DecisionTree deep({{"max_depth", 10}});
  shallow.fit(data);
  deep.fit(data);
  const double rmse_shallow = rmse(data.labels(), shallow.predict(data));
  const double rmse_deep = rmse(data.labels(), deep.predict(data));
  EXPECT_LE(rmse_deep, rmse_shallow + 1e-12);
}

TEST_P(TreePropertyTest, TreeStructureIsValid) {
  const Dataset data = noisy_surface(200, GetParam(), 0.4);
  DecisionTree tree({{"max_depth", 7}});
  tree.fit(data);
  const auto& nodes = tree.nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].is_leaf()) continue;
    ASSERT_GE(nodes[i].left, 0);
    ASSERT_GE(nodes[i].right, 0);
    ASSERT_LT(static_cast<std::size_t>(nodes[i].left), nodes.size());
    ASSERT_LT(static_cast<std::size_t>(nodes[i].right), nodes.size());
    EXPECT_GT(nodes[i].left, static_cast<int>(i));
    EXPECT_GT(nodes[i].right, static_cast<int>(i));
    EXPECT_LT(nodes[i].feature, static_cast<int>(data.n_features()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreePropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ------------------------------------------- flat evaluator vs an oracle

/// The reference the flat evaluator must match: a recursive
/// `x <= threshold ? left : right` descent over the saved JSON arrays.
double oracle(const Json& tree, std::span<const double> x, int node = 0) {
  const auto at = [&](const char* key) -> const Json& {
    return tree.at(key).as_array()[static_cast<std::size_t>(node)];
  };
  const int feature = at("feature").as_int();
  if (feature < 0) return at("value").as_number();
  const bool go_left =
      x[static_cast<std::size_t>(feature)] <= at("threshold").as_number();
  return oracle(tree, x, (go_left ? at("left") : at("right")).as_int());
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// n_rows random rows of `width` columns, every fifth value replaced by
/// NaN, +inf or -inf in turn.
std::vector<double> probe_rows(std::size_t n_rows, std::size_t width,
                               std::uint64_t seed) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double specials[] = {std::nan(""), kInf, -kInf};
  Rng rng(seed);
  std::vector<double> rows(n_rows * width);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i] = i % 5 == 4 ? specials[(i / 5) % 3] : rng.uniform(-4.0, 4.0);
  }
  return rows;
}

/// predict_one and predict_grid over G in {1, 4, 17, 65} against the
/// oracle on the tree's own save(), bit for bit.
void expect_matches_oracle(const DecisionTree& tree, std::size_t width) {
  const Json saved = tree.save();
  for (const std::size_t n_rows : {1u, 4u, 17u, 65u}) {
    const std::vector<double> rows = probe_rows(n_rows, width, n_rows);
    std::vector<double> grid(n_rows);
    tree.predict_grid(rows, n_rows, grid);
    for (std::size_t g = 0; g < n_rows; ++g) {
      const std::span<const double> x(rows.data() + g * width, width);
      const double want = oracle(saved, x);
      EXPECT_TRUE(same_bits(tree.predict_one(x), want)) << "G=" << n_rows;
      EXPECT_TRUE(same_bits(grid[g], want)) << "G=" << n_rows << " g=" << g;
    }
  }
}

TEST(FlatEvaluator, FittedAndReloadedTreesMatchTheOracle) {
  const Dataset data = noisy_surface(400, 17, 0.3);
  for (const double depth : {0.0, 3.0, 12.0}) {
    DecisionTree tree({{"max_depth", depth}});
    tree.fit(data);
    expect_matches_oracle(tree, data.n_features());
    const std::string text = tree.save().dump();
    DecisionTree restored;
    restored.load(Json::parse(text));
    expect_matches_oracle(restored, data.n_features());
    EXPECT_EQ(restored.save().dump(), text) << "save() must survive a load";
  }
}

/// A hand-written tree whose children are neither adjacent nor in BFS
/// order: root 0 splits to 5 / 2, node 5 to 1 / 3, node 2 to 6 / 4.
Json scrambled_tree() {
  Json tree;
  tree["model"] = Json("decision_tree");
  tree["params"] = Json(JsonObject{});
  const auto ints = [](std::initializer_list<int> xs) {
    JsonArray out;
    for (int x : xs) out.emplace_back(x);
    return Json(std::move(out));
  };
  tree["feature"] = ints({1, -1, 0, -1, -1, 0, -1});
  tree["threshold"] = Json::from_doubles({0.5, 0, -1.0, 0, 0, 2.0, 0});
  tree["value"] = Json::from_doubles({0, 10, 0, 30, 40, 0, -0.0});
  tree["left"] = ints({5, -1, 6, -1, -1, 1, -1});
  tree["right"] = ints({2, -1, 4, -1, -1, 3, -1});
  return tree;
}

TEST(FlatEvaluator, ScrambledNodeOrderMatchesTheOracle) {
  DecisionTree tree;
  tree.load(scrambled_tree());
  expect_matches_oracle(tree, 2);
  // save() writes the nodes as stored, not in the flat form's BFS order.
  for (const char* key : {"feature", "threshold", "value", "left", "right"}) {
    EXPECT_EQ(tree.save().at(key).dump(), scrambled_tree().at(key).dump());
  }
  // The -0.0 leaf keeps its sign through the flat form.
  EXPECT_TRUE(same_bits(tree.predict_one(std::vector<double>{-2.0, 1.0}),
                        -0.0));
}

TEST(FlatEvaluator, MalformedTreesAreRejectedAtLoad) {
  const auto load_with = [](const char* key, std::size_t node, int value) {
    Json blob = scrambled_tree();
    blob[key].as_array()[node] = Json(value);
    DecisionTree tree;
    tree.load(blob);
  };
  EXPECT_THROW(load_with("left", 0, 7), std::invalid_argument);   // range
  EXPECT_THROW(load_with("right", 2, -3), std::invalid_argument);  // range
  EXPECT_THROW(load_with("left", 5, 0), std::invalid_argument);   // cycle
  EXPECT_THROW(load_with("right", 2, 3), std::invalid_argument);  // shared
}

}  // namespace
}  // namespace adsala::ml
