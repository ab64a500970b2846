// Random forest regressor: bagged CART trees with feature subsampling.
//
// Trees are trained in parallel on the process thread pool (Breiman-style
// independence makes this embarrassingly parallel). Evaluation averages all
// trees -- which is why the paper measures the forest as accurate but too
// slow to beat the GEMM it is trying to accelerate (Tables III/IV).
#pragma once

#include "ml/tree.h"

namespace adsala::ml {

class RandomForest : public Regressor {
 public:
  explicit RandomForest(Params params = {}) { set_params(params); }

  void fit(const Dataset& data) override;
  double predict_one(std::span<const double> x) const override;
  void predict_grid(std::span<const double> rows, std::size_t n_rows,
                    std::span<double> out) const override;
  std::size_t input_width() const override { return flat_.input_width(); }
  std::string name() const override { return "random_forest"; }

  Params get_params() const override {
    return {{"n_estimators", static_cast<double>(n_estimators_)},
            {"max_depth", static_cast<double>(max_depth_)},
            {"min_samples_leaf", static_cast<double>(min_samples_leaf_)},
            {"max_features", max_features_},
            {"seed", static_cast<double>(seed_)}};
  }
  void set_params(const Params& params) override {
    n_estimators_ = static_cast<int>(param_or(params, "n_estimators", 100));
    max_depth_ = static_cast<int>(param_or(params, "max_depth", 16));
    min_samples_leaf_ =
        static_cast<int>(param_or(params, "min_samples_leaf", 1));
    max_features_ = param_or(params, "max_features", 0.5);
    seed_ = static_cast<std::uint64_t>(param_or(params, "seed", 11));
  }

  Json save() const override;
  void load(const Json& blob) override;
  std::unique_ptr<Regressor> clone() const override {
    return std::make_unique<RandomForest>(get_params());
  }

  std::size_t n_trees() const { return trees_.size(); }

 private:
  int n_estimators_ = 100;
  int max_depth_ = 16;
  int min_samples_leaf_ = 1;
  double max_features_ = 0.5;
  std::uint64_t seed_ = 11;
  std::vector<DecisionTree> trees_;
  FlatEnsemble flat_;  ///< trees_ compiled for prediction
};

}  // namespace adsala::ml
