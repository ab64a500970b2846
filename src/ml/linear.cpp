#include "ml/linear.h"

#include <algorithm>
#include <cmath>

#include "ml/linalg.h"

namespace adsala::ml {

namespace {

/// Centres features and label; returns per-column means (label mean last).
/// Linear fits solve in centred space so the intercept falls out exactly.
struct Centred {
  std::vector<double> x;        // centred features, row-major
  std::vector<double> y;        // centred labels
  std::vector<double> x_mean;   // per-feature mean
  double y_mean = 0.0;
};

Centred centre(const Dataset& data) {
  const std::size_t n = data.size();
  const std::size_t d = data.n_features();
  Centred c;
  c.x.assign(n * d, 0.0);
  c.y.assign(n, 0.0);
  c.x_mean.assign(d, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = data.row(i);
    for (std::size_t j = 0; j < d; ++j) c.x_mean[j] += row[j];
    c.y_mean += data.label(i);
  }
  for (std::size_t j = 0; j < d; ++j) c.x_mean[j] /= static_cast<double>(n);
  c.y_mean /= static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = data.row(i);
    for (std::size_t j = 0; j < d; ++j) c.x[i * d + j] = row[j] - c.x_mean[j];
    c.y[i] = data.label(i) - c.y_mean;
  }
  return c;
}

/// Gram matrix X^T X (d x d) and moment vector X^T y from centred data.
void gram(const Centred& c, std::size_t n, std::size_t d,
          std::vector<double>& xtx, std::vector<double>& xty) {
  xtx.assign(d * d, 0.0);
  xty.assign(d, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = &c.x[i * d];
    for (std::size_t a = 0; a < d; ++a) {
      xty[a] += row[a] * c.y[i];
      for (std::size_t b = a; b < d; ++b) xtx[a * d + b] += row[a] * row[b];
    }
  }
  for (std::size_t a = 0; a < d; ++a) {
    for (std::size_t b = 0; b < a; ++b) xtx[a * d + b] = xtx[b * d + a];
  }
}

}  // namespace

double LinearModel::predict_one(std::span<const double> x) const {
  double acc = intercept_;
  const std::size_t d = std::min(x.size(), coef_.size());
  for (std::size_t j = 0; j < d; ++j) acc += coef_[j] * x[j];
  return acc;
}

void LinearModel::save_state(Json& out) const {
  out["coef"] = Json::from_doubles(coef_);
  out["intercept"] = Json(intercept_);
}

void LinearModel::load_state(const Json& blob) {
  coef_ = blob.at("coef").to_doubles();
  intercept_ = blob.at("intercept").as_number();
}

// ---------------------------------------------------------------- Linear --

void LinearRegression::fit(const Dataset& data) {
  check_fit_input(data);
  const std::size_t n = data.size();
  const std::size_t d = data.n_features();
  const Centred c = centre(data);
  std::vector<double> xtx, xty;
  gram(c, n, d, xtx, xty);
  for (std::size_t j = 0; j < d; ++j) {
    xtx[j * d + j] += alpha_ + 1e-10;  // ridge + stabilising jitter
  }
  coef_ = solve_spd(std::move(xtx), d, std::move(xty));
  intercept_ = c.y_mean;
  for (std::size_t j = 0; j < d; ++j) intercept_ -= coef_[j] * c.x_mean[j];
}

// ------------------------------------------------------------ ElasticNet --

void ElasticNet::fit(const Dataset& data) {
  check_fit_input(data);
  const std::size_t n = data.size();
  const std::size_t d = data.n_features();
  const Centred c = centre(data);

  // Coordinate descent on: 1/(2n)||y - Xw||^2 + a*l1*|w| + a*(1-l1)/2*||w||^2.
  const double l1 = alpha_ * l1_ratio_ * static_cast<double>(n);
  const double l2 = alpha_ * (1.0 - l1_ratio_) * static_cast<double>(n);

  std::vector<double> col_sq(d, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      col_sq[j] += c.x[i * d + j] * c.x[i * d + j];
    }
  }

  coef_.assign(d, 0.0);
  std::vector<double> residual = c.y;  // y - Xw with w = 0

  for (int iter = 0; iter < max_iter_; ++iter) {
    double max_delta = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      if (col_sq[j] == 0.0) continue;
      // rho = x_j . (residual + x_j * w_j)
      double rho = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        rho += c.x[i * d + j] * residual[i];
      }
      rho += col_sq[j] * coef_[j];
      const double soft =
          std::copysign(std::max(std::fabs(rho) - l1, 0.0), rho);
      const double w_new = soft / (col_sq[j] + l2);
      const double delta = w_new - coef_[j];
      if (delta != 0.0) {
        for (std::size_t i = 0; i < n; ++i) {
          residual[i] -= delta * c.x[i * d + j];
        }
        coef_[j] = w_new;
        max_delta = std::max(max_delta, std::fabs(delta));
      }
    }
    if (max_delta < tol_) break;
  }

  intercept_ = c.y_mean;
  for (std::size_t j = 0; j < d; ++j) intercept_ -= coef_[j] * c.x_mean[j];
}

// --------------------------------------------------------- BayesianRidge --

void BayesianRidge::fit(const Dataset& data) {
  check_fit_input(data);
  const std::size_t n = data.size();
  const std::size_t d = data.n_features();
  const Centred c = centre(data);
  std::vector<double> xtx, xty;
  gram(c, n, d, xtx, xty);

  // Initialise noise precision from label variance (sklearn convention).
  double y_var = 0.0;
  for (double v : c.y) y_var += v * v;
  y_var /= std::max<double>(static_cast<double>(n), 1.0);
  alpha_precision_ = y_var > 0.0 ? 1.0 / y_var : 1.0;
  lambda_precision_ = 1.0;

  coef_.assign(d, 0.0);
  double prev_rss = -1.0;

  for (int iter = 0; iter < max_iter_; ++iter) {
    // Posterior mean: (lambda I + alpha XtX) w = alpha Xty.
    std::vector<double> a(d * d);
    for (std::size_t idx = 0; idx < d * d; ++idx) {
      a[idx] = alpha_precision_ * xtx[idx];
    }
    for (std::size_t j = 0; j < d; ++j) a[j * d + j] += lambda_precision_;

    std::vector<double> rhs(d);
    for (std::size_t j = 0; j < d; ++j) rhs[j] = alpha_precision_ * xty[j];
    // Keep the factor to compute trace(Sigma) for the gamma update.
    std::vector<double> factor = a;
    double jitter = 1e-12;
    while (!cholesky_factor(factor, d)) {
      factor = a;
      for (std::size_t j = 0; j < d; ++j) factor[j * d + j] += jitter;
      jitter *= 100.0;
    }
    coef_ = rhs;
    cholesky_solve_inplace(factor, d, coef_);

    // trace(Sigma) via d unit-vector solves (d is small).
    double trace_sigma = 0.0;
    std::vector<double> e(d);
    for (std::size_t j = 0; j < d; ++j) {
      std::fill(e.begin(), e.end(), 0.0);
      e[j] = 1.0;
      cholesky_solve_inplace(factor, d, e);
      trace_sigma += e[j];
    }

    // Effective number of well-determined parameters.
    const double gamma =
        static_cast<double>(d) - lambda_precision_ * trace_sigma;

    double rss = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double pred = 0.0;
      for (std::size_t j = 0; j < d; ++j) pred += c.x[i * d + j] * coef_[j];
      const double r = c.y[i] - pred;
      rss += r * r;
    }
    double coef_sq = 0.0;
    for (double w : coef_) coef_sq += w * w;

    lambda_precision_ = (gamma + 1e-12) / (coef_sq + 1e-12);
    alpha_precision_ =
        (static_cast<double>(n) - gamma + 1e-12) / (rss + 1e-12);

    if (prev_rss >= 0.0 && std::fabs(prev_rss - rss) < tol_ * (1.0 + rss)) {
      break;
    }
    prev_rss = rss;
  }

  intercept_ = c.y_mean;
  for (std::size_t j = 0; j < d; ++j) intercept_ -= coef_[j] * c.x_mean[j];
}

void BayesianRidge::save_state(Json& out) const {
  LinearModel::save_state(out);
  out["alpha_precision"] = Json(alpha_precision_);
  out["lambda_precision"] = Json(lambda_precision_);
}

void BayesianRidge::load_state(const Json& blob) {
  LinearModel::load_state(blob);
  if (blob.contains("alpha_precision")) {
    alpha_precision_ = blob.at("alpha_precision").as_number();
    lambda_precision_ = blob.at("lambda_precision").as_number();
  }
}

}  // namespace adsala::ml
