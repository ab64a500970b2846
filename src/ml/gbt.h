// XGBoost-style gradient-boosted trees (exact greedy splits).
//
// Second-order boosting for squared error (Chen & Guestrin 2016): each round
// fits a regression tree to the gradient/hessian statistics with the
// regularised gain
//   0.5 * (GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda)) - gamma
// and leaf weight -G/(H+lambda), shrunk by the learning rate. Row and column
// subsampling are supported. This is the model the paper ultimately selects
// on both platforms (Tables III/IV).
//
// Splits come from presorted columns (ml/presorted.h): every feature column
// is sorted by (value, row) once per fit; each round carves the columns it
// sampled, keeping only the rows it sampled, and every node scans its own
// [begin, end) range of them.
#pragma once

#include <cstdint>

#include "ml/model.h"
#include "ml/tree.h"  // reuses the flat TreeNode record

namespace adsala::ml {

/// The fitted state of both boosted-tree models (XgbRegressor and
/// LightGbmRegressor, ml/hist_gbt.h): a base score plus trees whose leaf
/// values are already shrunk by the learning rate and whose thresholds are
/// in feature-value space. A prediction is base_score + the leaves, added
/// in tree order; the trees compile into one FlatEnsemble for rows and
/// into leaf-mask tables for thread grids (ml/grid_scorer.h). The model
/// file holds "base_score" and "trees", one node-array object per tree
/// (save_nodes, ml/flat_ensemble.h).
class BoostedTrees : public Regressor {
 public:
  double predict_one(std::span<const double> x) const override;
  void predict_grid(std::span<const double> rows, std::size_t n_rows,
                    std::span<double> out) const override;
  std::size_t input_width() const override { return flat_.input_width(); }
  std::shared_ptr<const GridScorer> grid_scorer(
      const GridLayout& layout, std::string* why_not) const override;

  std::size_t n_trees() const { return trees_.size(); }
  double base_score() const { return base_score_; }

 protected:
  void save_state(Json& out) const override;
  void load_state(const Json& blob) override;

  double base_score_ = 0.0;
  std::vector<std::vector<TreeNode>> trees_;
  FlatEnsemble flat_;  ///< trees_ compiled for prediction
};

class XgbRegressor : public BoostedTrees {
 public:
  explicit XgbRegressor(Params params = {}) { set_params(params); }

  void fit(const Dataset& data) override;
  std::string name() const override { return "xgboost"; }

  Params get_params() const override {
    return {{"n_estimators", static_cast<double>(n_estimators_)},
            {"max_depth", static_cast<double>(max_depth_)},
            {"learning_rate", learning_rate_},
            {"reg_lambda", reg_lambda_},
            {"gamma", gamma_},
            {"min_child_weight", min_child_weight_},
            {"subsample", subsample_},
            {"colsample", colsample_},
            {"seed", static_cast<double>(seed_)}};
  }
  void set_params(const Params& params) override {
    n_estimators_ = static_cast<int>(param_or(params, "n_estimators", 200));
    max_depth_ = static_cast<int>(param_or(params, "max_depth", 6));
    learning_rate_ = param_or(params, "learning_rate", 0.1);
    reg_lambda_ = param_or(params, "reg_lambda", 1.0);
    gamma_ = param_or(params, "gamma", 0.0);
    min_child_weight_ = param_or(params, "min_child_weight", 1.0);
    subsample_ = param_or(params, "subsample", 1.0);
    colsample_ = param_or(params, "colsample", 1.0);
    seed_ = static_cast<std::uint64_t>(param_or(params, "seed", 17));
  }

 private:
  int n_estimators_ = 200;
  int max_depth_ = 6;
  double learning_rate_ = 0.1;
  double reg_lambda_ = 1.0;
  double gamma_ = 0.0;
  double min_child_weight_ = 1.0;
  double subsample_ = 1.0;
  double colsample_ = 1.0;
  std::uint64_t seed_ = 17;
};

}  // namespace adsala::ml
