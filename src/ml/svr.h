// Linear epsilon-insensitive Support Vector Regression.
//
// Completes the paper's Table I model inventory. The paper argues SVMs are
// unsuited to this dataset (low dimensionality, no benefit from the kernel
// trick at this scale) and excludes them from the tuned candidates; this
// implementation lets that claim be tested rather than assumed. Training is
// averaged stochastic subgradient descent on the primal objective
//   C * sum_i max(0, |w.x_i + b - y_i| - epsilon) + 0.5 ||w||^2.
#pragma once

#include "ml/linear.h"

namespace adsala::ml {

class SvrRegressor : public LinearModel {
 public:
  explicit SvrRegressor(Params params = {}) { set_params(params); }

  void fit(const Dataset& data) override;
  std::string name() const override { return "svr"; }

  Params get_params() const override {
    return {{"c", c_},
            {"epsilon", epsilon_},
            {"epochs", static_cast<double>(epochs_)},
            {"seed", static_cast<double>(seed_)}};
  }
  void set_params(const Params& params) override {
    c_ = param_or(params, "c", 1.0);
    epsilon_ = param_or(params, "epsilon", 0.1);
    epochs_ = static_cast<int>(param_or(params, "epochs", 60));
    seed_ = static_cast<std::uint64_t>(param_or(params, "seed", 23));
  }

 private:
  double c_ = 1.0;
  double epsilon_ = 0.1;
  int epochs_ = 60;
  std::uint64_t seed_ = 23;
};

}  // namespace adsala::ml
