// LightGBM-style gradient boosting: histogram bins + leaf-wise growth.
//
// Features are quantised once into <=max_bins quantile bins; per-leaf
// histograms of (G, H) make each split scan O(bins) instead of O(n log n),
// and leaves are grown best-first (leaf-wise) up to num_leaves — the two
// signature LightGBM design choices (Ke et al. 2017). Objective and gain are
// the same second-order form as the XGBoost module.
#pragma once

#include <cstdint>

#include "ml/gbt.h"

namespace adsala::ml {

class LightGbmRegressor : public BoostedTrees {
 public:
  explicit LightGbmRegressor(Params params = {}) { set_params(params); }

  void fit(const Dataset& data) override;
  std::string name() const override { return "lightgbm"; }

  Params get_params() const override {
    return {{"n_estimators", static_cast<double>(n_estimators_)},
            {"num_leaves", static_cast<double>(num_leaves_)},
            {"learning_rate", learning_rate_},
            {"reg_lambda", reg_lambda_},
            {"min_child_samples", static_cast<double>(min_child_samples_)},
            {"max_bins", static_cast<double>(max_bins_)},
            {"seed", static_cast<double>(seed_)}};
  }
  void set_params(const Params& params) override {
    n_estimators_ = static_cast<int>(param_or(params, "n_estimators", 200));
    num_leaves_ = static_cast<int>(param_or(params, "num_leaves", 31));
    learning_rate_ = param_or(params, "learning_rate", 0.1);
    reg_lambda_ = param_or(params, "reg_lambda", 1.0);
    min_child_samples_ =
        static_cast<int>(param_or(params, "min_child_samples", 5));
    max_bins_ = static_cast<int>(param_or(params, "max_bins", 64));
    seed_ = static_cast<std::uint64_t>(param_or(params, "seed", 19));
  }

 private:
  int n_estimators_ = 200;
  int num_leaves_ = 31;
  double learning_rate_ = 0.1;
  double reg_lambda_ = 1.0;
  int min_child_samples_ = 5;
  int max_bins_ = 64;
  std::uint64_t seed_ = 19;
};

}  // namespace adsala::ml
