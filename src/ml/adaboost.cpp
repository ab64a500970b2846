#include "ml/adaboost.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "common/rng.h"

namespace adsala::ml {

void AdaBoostR2::fit(const Dataset& data) {
  check_fit_input(data);
  const std::size_t n = data.size();
  trees_.clear();
  beta_log_.clear();

  std::vector<double> weights(n, 1.0 / static_cast<double>(n));
  std::vector<double> errors(n);
  const SortedColumns sorted(data);

  for (int round = 0; round < n_estimators_; ++round) {
    DecisionTree tree({{"max_depth", static_cast<double>(max_depth_)},
                       {"seed", static_cast<double>(seed_ + round)}});
    tree.fit_weighted(data, weights, sorted);

    double max_err = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      errors[i] = std::fabs(tree.predict_one(data.row(i)) - data.label(i));
      max_err = std::max(max_err, errors[i]);
    }
    if (max_err == 0.0) {  // perfect member; keep it with a large weight
      trees_.push_back(std::move(tree));
      beta_log_.push_back(20.0);
      break;
    }

    double avg_loss = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double li = errors[i] / max_err;
      if (loss_ == 1) li *= li;  // square loss variant
      avg_loss += weights[i] * li;
    }
    if (avg_loss >= 0.5) {
      // Drucker's stopping rule: a member worse than random would get a
      // negative weight; stop unless the ensemble is still empty.
      if (!trees_.empty()) break;
      trees_.push_back(std::move(tree));
      beta_log_.push_back(1e-3);
      break;
    }

    const double beta = avg_loss / (1.0 - avg_loss);
    const double weight_log = learning_rate_ * std::log(1.0 / beta);

    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double li = errors[i] / max_err;
      if (loss_ == 1) li *= li;
      weights[i] *= std::pow(beta, learning_rate_ * (1.0 - li));
      sum += weights[i];
    }
    if (sum <= 0.0) break;
    for (auto& w : weights) w /= sum;

    trees_.push_back(std::move(tree));
    beta_log_.push_back(weight_log);
  }
  flat_ = compile_trees(trees_);
}

double AdaBoostR2::predict_one(std::span<const double> x) const {
  double out = 0.0;
  predict_grid(x, 1, {&out, 1});
  return out;
}

void AdaBoostR2::predict_grid(std::span<const double> rows,
                              std::size_t n_rows,
                              std::span<double> out) const {
  if (trees_.empty()) {
    std::fill_n(out.begin(), n_rows, 0.0);
    return;
  }
  const std::size_t n_trees = trees_.size();
  std::vector<double> leaves(n_rows * n_trees);
  flat_.leaves(rows, n_rows, leaves);
  // Weighted median of member predictions (Drucker 1997, eq. at end of SS3).
  std::vector<std::pair<double, double>> pred;  // (prediction, weight)
  pred.reserve(n_trees);
  for (std::size_t g = 0; g < n_rows; ++g) {
    pred.clear();
    for (std::size_t t = 0; t < n_trees; ++t) {
      pred.emplace_back(leaves[g * n_trees + t], beta_log_[t]);
    }
    std::sort(pred.begin(), pred.end());
    double total = 0.0;
    for (const auto& [p, w] : pred) total += w;
    double acc = 0.0;
    out[g] = pred.back().first;
    for (const auto& [p, w] : pred) {
      acc += w;
      if (acc >= 0.5 * total) {
        out[g] = p;
        break;
      }
    }
  }
}

Json AdaBoostR2::save() const {
  Json out;
  out["model"] = Json(name());
  JsonObject pj;
  for (const auto& [k, v] : get_params()) pj[k] = Json(v);
  out["params"] = Json(std::move(pj));
  JsonArray trees;
  for (const auto& tree : trees_) trees.push_back(tree.save());
  out["trees"] = Json(std::move(trees));
  out["beta_log"] = Json::from_doubles(beta_log_);
  return out;
}

void AdaBoostR2::load(const Json& blob) {
  Params p;
  for (const auto& [k, v] : blob.at("params").as_object()) {
    p[k] = v.as_number();
  }
  set_params(p);
  trees_.clear();
  for (const auto& tj : blob.at("trees").as_array()) {
    DecisionTree tree;
    tree.load(tj);
    trees_.push_back(std::move(tree));
  }
  beta_log_ = blob.at("beta_log").to_doubles();
  if (beta_log_.size() != trees_.size()) {
    throw std::invalid_argument("AdaBoostR2: one weight per tree required");
  }
  flat_ = compile_trees(trees_);
}

}  // namespace adsala::ml
