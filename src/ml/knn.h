// k-nearest-neighbours regressor (brute force, optional distance weighting).
//
// Included to reproduce the paper's observation that kNN reaches competitive
// RMSE but its O(n_train) evaluation makes it useless for runtime thread
// selection (SS VI-B: "their slow evaluation speed causes a drastic decrease
// in the estimated speedup"). Inputs are expected pre-standardised by the
// preprocessing pipeline (Euclidean metric).
#pragma once

#include "ml/model.h"

namespace adsala::ml {

class KnnRegressor : public Regressor {
 public:
  explicit KnnRegressor(Params params = {}) { set_params(params); }

  void fit(const Dataset& data) override;
  double predict_one(std::span<const double> x) const override;
  std::size_t input_width() const override { return d_; }
  std::string name() const override { return "knn"; }

  Params get_params() const override {
    return {{"k", static_cast<double>(k_)},
            {"distance_weighted", distance_weighted_ ? 1.0 : 0.0}};
  }
  void set_params(const Params& params) override {
    k_ = static_cast<int>(param_or(params, "k", 5));
    distance_weighted_ = param_or(params, "distance_weighted", 0.0) != 0.0;
  }

 private:
  void save_state(Json& out) const override;
  void load_state(const Json& blob) override;

  int k_ = 5;
  bool distance_weighted_ = false;
  std::size_t d_ = 0;
  std::vector<double> x_;  // row-major training features
  std::vector<double> y_;
};

}  // namespace adsala::ml
