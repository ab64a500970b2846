#include "preprocess/yeo_johnson.h"

#include <cmath>
#include <limits>
#include <vector>

namespace adsala::preprocess {

double yeo_johnson(double x, double lambda) {
  if (x >= 0.0) {
    if (std::fabs(lambda) < 1e-12) return std::log1p(x);
    return (std::pow(x + 1.0, lambda) - 1.0) / lambda;
  }
  const double two_minus = 2.0 - lambda;
  if (std::fabs(two_minus) < 1e-12) return -std::log1p(-x);
  return -(std::pow(1.0 - x, two_minus) - 1.0) / two_minus;
}

double yeo_johnson_inverse(double y, double lambda) {
  if (y >= 0.0) {
    if (std::fabs(lambda) < 1e-12) return std::expm1(y);
    return std::pow(lambda * y + 1.0, 1.0 / lambda) - 1.0;
  }
  const double two_minus = 2.0 - lambda;
  if (std::fabs(two_minus) < 1e-12) return -std::expm1(-y);
  return 1.0 - std::pow(1.0 - two_minus * y, 1.0 / two_minus);
}

namespace {

/// The sign-adjusted log1p|x| of each sample: the lambda-free factor of the
/// log-Jacobian, computed once per column.
std::vector<double> signed_log1p(std::span<const double> xs) {
  std::vector<double> out;
  out.reserve(xs.size());
  for (double x : xs) out.push_back(std::copysign(std::log1p(std::fabs(x)), x));
  return out;
}

/// yeo_johnson_log_likelihood with the log1p terms given and a scratch for
/// the transformed sample, so each value is transformed once per lambda.
/// Every sum runs in sample order, as the one-call form always has.
double log_likelihood(std::span<const double> xs,
                      std::span<const double> log1p_terms, double lambda,
                      std::vector<double>& transformed) {
  const auto n = static_cast<double>(xs.size());
  transformed.resize(xs.size());
  double mean = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    transformed[i] = yeo_johnson(xs[i], lambda);
    mean += transformed[i];
  }
  mean /= n;
  double var = 0.0;
  double jacobian = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double t = transformed[i] - mean;
    var += t * t;
    // d/dx YJ(x; lambda) has log |.| = (lambda-1) * sign-adjusted log1p|x|.
    jacobian += (lambda - 1.0) * log1p_terms[i];
  }
  var /= n;
  if (var <= 0.0) var = std::numeric_limits<double>::min();
  return -0.5 * n * std::log(var) + jacobian;
}

}  // namespace

double yeo_johnson_log_likelihood(std::span<const double> xs, double lambda) {
  if (xs.empty()) return 0.0;
  std::vector<double> transformed;
  return log_likelihood(xs, signed_log1p(xs), lambda, transformed);
}

double estimate_lambda(std::span<const double> xs, double lo, double hi,
                       double tol) {
  if (xs.empty()) return 1.0;
  const std::vector<double> log1p_terms = signed_log1p(xs);
  std::vector<double> transformed;
  const auto f = [&](double lambda) {
    return log_likelihood(xs, log1p_terms, lambda, transformed);
  };
  // Golden-section maximisation of the profile log-likelihood.
  constexpr double kInvPhi = 0.6180339887498949;
  double a = lo, b = hi;
  double c = b - kInvPhi * (b - a);
  double d = a + kInvPhi * (b - a);
  double fc = f(c);
  double fd = f(d);
  while (b - a > tol) {
    if (fc > fd) {
      b = d;
      d = c;
      fd = fc;
      c = b - kInvPhi * (b - a);
      fc = f(c);
    } else {
      a = c;
      c = d;
      fc = fd;
      d = a + kInvPhi * (b - a);
      fd = f(d);
    }
  }
  return 0.5 * (a + b);
}

std::vector<double> YeoJohnsonTransformer::transform(
    std::span<const double> xs) const {
  std::vector<double> out;
  out.reserve(xs.size());
  for (double x : xs) out.push_back(transform(x));
  return out;
}

}  // namespace adsala::preprocess
