#include "ml/knn.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/thread_pool.h"

namespace adsala::ml {

void KnnRegressor::fit(const Dataset& data) {
  check_fit_input(data);
  d_ = data.n_features();
  x_ = data.flat();
  y_ = data.labels();
}

double KnnRegressor::predict_one(std::span<const double> x) const {
  if (y_.empty()) return 0.0;
  const std::size_t n = y_.size();
  const auto k = std::min<std::size_t>(static_cast<std::size_t>(k_), n);

  // Partial selection of the k smallest squared distances. Rows are
  // independent, so the distance pass fans out over the pool for large
  // training sets (nested calls degrade to serial inside other regions).
  std::vector<std::pair<double, std::size_t>> dist(n);
  const auto distance_to = [&](std::size_t i) {
    double s = 0.0;
    const double* row = &x_[i * d_];
    for (std::size_t j = 0; j < d_ && j < x.size(); ++j) {
      const double diff = row[j] - x[j];
      s += diff * diff;
    }
    dist[i] = {s, i};
  };
  constexpr std::size_t kParallelWork = 1 << 14;  // flops below this: serial
  if (n * d_ >= kParallelWork) {
    ThreadPool& pool = ThreadPool::global();
    pool.parallel_for(pool.max_threads(), 0, n, distance_to);
  } else {
    for (std::size_t i = 0; i < n; ++i) distance_to(i);
  }
  std::nth_element(dist.begin(),
                   dist.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   dist.end());

  if (!distance_weighted_) {
    double sum = 0.0;
    for (std::size_t i = 0; i < k; ++i) sum += y_[dist[i].second];
    return sum / static_cast<double>(k);
  }
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const double w = 1.0 / (std::sqrt(dist[i].first) + 1e-12);
    num += w * y_[dist[i].second];
    den += w;
  }
  return num / den;
}

void KnnRegressor::save_state(Json& out) const {
  out["d"] = Json(d_);
  out["x"] = Json::from_doubles(x_);
  out["y"] = Json::from_doubles(y_);
}

void KnnRegressor::load_state(const Json& blob) {
  if (k_ < 1) throw std::invalid_argument("knn: k must be at least 1");
  d_ = static_cast<std::size_t>(blob.at("d").as_number());
  x_ = blob.at("x").to_doubles();
  y_ = blob.at("y").to_doubles();
  // x.size() == d * y.size(), without the product (d is read from the file).
  const bool consistent = y_.empty() ? x_.empty()
                                     : x_.size() % y_.size() == 0 &&
                                           x_.size() / y_.size() == d_;
  if (!consistent) {
    throw std::invalid_argument(
        "knn: 'x' holds " + std::to_string(x_.size()) + " values, not d (" +
        std::to_string(d_) + ") per 'y' row (" + std::to_string(y_.size()) +
        ")");
  }
}

}  // namespace adsala::ml
