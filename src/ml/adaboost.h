// AdaBoost.R2 (Drucker 1997): serial boosting of CART trees for regression.
//
// Each round re-weights samples by relative prediction error and the
// ensemble predicts with the *weighted median* of its members -- the detail
// that distinguishes R2 from naive averaging boosters.
#pragma once

#include "ml/tree.h"

namespace adsala::ml {

class AdaBoostR2 : public Regressor {
 public:
  explicit AdaBoostR2(Params params = {}) { set_params(params); }

  void fit(const Dataset& data) override;
  double predict_one(std::span<const double> x) const override;
  void predict_grid(std::span<const double> rows, std::size_t n_rows,
                    std::span<double> out) const override;
  std::size_t input_width() const override { return flat_.input_width(); }
  std::string name() const override { return "adaboost"; }

  Params get_params() const override {
    return {{"n_estimators", static_cast<double>(n_estimators_)},
            {"max_depth", static_cast<double>(max_depth_)},
            {"learning_rate", learning_rate_},
            {"loss", static_cast<double>(loss_)},
            {"seed", static_cast<double>(seed_)}};
  }
  void set_params(const Params& params) override {
    n_estimators_ = static_cast<int>(param_or(params, "n_estimators", 50));
    max_depth_ = static_cast<int>(param_or(params, "max_depth", 4));
    learning_rate_ = param_or(params, "learning_rate", 1.0);
    loss_ = static_cast<int>(param_or(params, "loss", 0));  // 0=linear,1=square
    seed_ = static_cast<std::uint64_t>(param_or(params, "seed", 13));
  }

  std::size_t n_trees() const { return trees_.size(); }
  const std::vector<double>& estimator_weights() const { return beta_log_; }

 private:
  void save_state(Json& out) const override;
  void load_state(const Json& blob) override;

  int n_estimators_ = 50;
  int max_depth_ = 4;
  double learning_rate_ = 1.0;
  int loss_ = 0;
  std::uint64_t seed_ = 13;
  std::vector<DecisionTree> trees_;
  std::vector<double> beta_log_;  ///< log(1/beta_t), the estimator weights
  FlatEnsemble flat_;             ///< trees_ compiled for prediction
};

}  // namespace adsala::ml
