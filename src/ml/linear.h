// Linear model family: OLS/Ridge, ElasticNet, Bayesian Ridge.
//
// These are the paper's Table I "Linear Models" candidates: fast to evaluate
// (a dot product), cheap to train, but limited on the non-linear
// (m, k, n, p) -> runtime mapping — exactly the trade-off Tables III/IV show.
// LinearModel holds what they share with the linear SVR (ml/svr.h): the
// coefficients, the intercept, the dot product and their model-file state.
#pragma once

#include "ml/model.h"

namespace adsala::ml {

/// The state every linear-family model fits and serves: a coefficient per
/// column and an intercept, predicted as intercept + coef . x, saved as
/// "coef" and "intercept".
class LinearModel : public Regressor {
 public:
  double predict_one(std::span<const double> x) const override;
  std::size_t input_width() const override { return coef_.size(); }

  const std::vector<double>& coefficients() const { return coef_; }
  double intercept() const { return intercept_; }

 protected:
  void save_state(Json& out) const override;
  void load_state(const Json& blob) override;

  std::vector<double> coef_;
  double intercept_ = 0.0;
};

/// Ordinary least squares with optional L2 penalty (alpha = 0 -> pure OLS
/// via normal equations; a tiny jitter keeps rank-deficient fits solvable).
class LinearRegression : public LinearModel {
 public:
  explicit LinearRegression(Params params = {}) { set_params(params); }

  void fit(const Dataset& data) override;
  std::string name() const override { return "linear_regression"; }
  Params get_params() const override { return {{"alpha", alpha_}}; }
  void set_params(const Params& params) override {
    alpha_ = param_or(params, "alpha", 0.0);
  }

 private:
  double alpha_ = 0.0;
};

/// ElasticNet: L1+L2-penalised least squares via cyclic coordinate descent
/// (Friedman et al. pathwise form). l1_ratio = 1 is the Lasso, 0 is Ridge.
class ElasticNet : public LinearModel {
 public:
  explicit ElasticNet(Params params = {}) { set_params(params); }

  void fit(const Dataset& data) override;
  std::string name() const override { return "elastic_net"; }
  Params get_params() const override {
    return {{"alpha", alpha_},
            {"l1_ratio", l1_ratio_},
            {"max_iter", static_cast<double>(max_iter_)},
            {"tol", tol_}};
  }
  void set_params(const Params& params) override {
    alpha_ = param_or(params, "alpha", 1.0);
    l1_ratio_ = param_or(params, "l1_ratio", 0.5);
    max_iter_ = static_cast<int>(param_or(params, "max_iter", 1000));
    tol_ = param_or(params, "tol", 1e-6);
  }

 private:
  double alpha_ = 1.0;
  double l1_ratio_ = 0.5;
  int max_iter_ = 1000;
  double tol_ = 1e-6;
};

/// Bayesian ridge regression with evidence-maximisation hyper-parameter
/// updates (MacKay / sklearn's BayesianRidge): the noise precision alpha and
/// weight precision lambda are re-estimated each iteration.
class BayesianRidge : public LinearModel {
 public:
  explicit BayesianRidge(Params params = {}) { set_params(params); }

  void fit(const Dataset& data) override;
  std::string name() const override { return "bayesian_ridge"; }
  Params get_params() const override {
    return {{"max_iter", static_cast<double>(max_iter_)}, {"tol", tol_}};
  }
  void set_params(const Params& params) override {
    max_iter_ = static_cast<int>(param_or(params, "max_iter", 300));
    tol_ = param_or(params, "tol", 1e-4);
  }

  double noise_precision() const { return alpha_precision_; }
  double weight_precision() const { return lambda_precision_; }

 private:
  void save_state(Json& out) const override;
  void load_state(const Json& blob) override;

  int max_iter_ = 300;
  double tol_ = 1e-4;
  double alpha_precision_ = 1.0;
  double lambda_precision_ = 1.0;
};

}  // namespace adsala::ml
