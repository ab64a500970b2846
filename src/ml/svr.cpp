#include "ml/svr.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/rng.h"

namespace adsala::ml {

void SvrRegressor::fit(const Dataset& data) {
  check_fit_input(data);
  const std::size_t n = data.size();
  const std::size_t d = data.n_features();

  // Centre the label so the bias starts near its optimum; features are
  // expected pre-standardised by the pipeline (as for kNN).
  double y_mean = 0.0;
  for (std::size_t i = 0; i < n; ++i) y_mean += data.label(i);
  y_mean /= static_cast<double>(n);

  coef_.assign(d, 0.0);
  intercept_ = y_mean;

  // Pegasos-style schedule: eta_t = 1 / (lambda * t), lambda = 1 / (C * n).
  const double lambda = 1.0 / (c_ * static_cast<double>(n));
  std::vector<double> avg_coef(d, 0.0);
  double avg_intercept = 0.0;
  std::size_t avg_count = 0;

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng rng(seed_);

  std::size_t t = 1;
  for (int epoch = 0; epoch < epochs_; ++epoch) {
    std::shuffle(order.begin(), order.end(), rng);
    for (std::size_t idx : order) {
      const auto x = data.row(idx);
      double pred = intercept_;
      for (std::size_t j = 0; j < d; ++j) pred += coef_[j] * x[j];
      const double residual = pred - data.label(idx);

      const double eta = 1.0 / (lambda * static_cast<double>(t));
      // L2 shrinkage on w (not on the bias).
      const double shrink = 1.0 - eta * lambda;
      for (std::size_t j = 0; j < d; ++j) coef_[j] *= shrink;
      if (std::fabs(residual) > epsilon_) {
        const double g = residual > 0.0 ? 1.0 : -1.0;
        const double step = eta / static_cast<double>(n);
        for (std::size_t j = 0; j < d; ++j) coef_[j] -= step * g * x[j];
        intercept_ -= step * g;
      }
      ++t;

      // Tail averaging over the last half of training stabilises SGD.
      if (epoch >= epochs_ / 2) {
        for (std::size_t j = 0; j < d; ++j) avg_coef[j] += coef_[j];
        avg_intercept += intercept_;
        ++avg_count;
      }
    }
  }
  if (avg_count > 0) {
    for (std::size_t j = 0; j < d; ++j) {
      coef_[j] = avg_coef[j] / static_cast<double>(avg_count);
    }
    intercept_ = avg_intercept / static_cast<double>(avg_count);
  }
}

}  // namespace adsala::ml
