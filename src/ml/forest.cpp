#include "ml/forest.h"

#include <algorithm>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace adsala::ml {

void RandomForest::fit(const Dataset& data) {
  check_fit_input(data);
  const std::size_t n = data.size();
  trees_.assign(static_cast<std::size_t>(n_estimators_), DecisionTree{});

  // Bootstrap weights are drawn sequentially (deterministic order), the
  // expensive tree builds run on the pool.
  std::vector<std::vector<double>> weights(trees_.size());
  Rng rng(seed_);
  for (auto& w : weights) {
    w.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) w[rng.below(n)] += 1.0;
  }

  const SortedColumns sorted(data);  // shared, read-only, by every tree
  ThreadPool& pool = ThreadPool::global();
  pool.parallel_for(pool.max_threads(), 0, trees_.size(), [&](std::size_t t) {
    Params p = {{"max_depth", static_cast<double>(max_depth_)},
                {"min_samples_leaf", static_cast<double>(min_samples_leaf_)},
                {"max_features", max_features_},
                {"seed", static_cast<double>(seed_ + 1 + t)}};
    trees_[t].set_params(p);
    trees_[t].fit_weighted(data, weights[t], sorted);
  });
  flat_ = compile_trees(trees_);
}

double RandomForest::predict_one(std::span<const double> x) const {
  double out = 0.0;
  predict_grid(x, 1, {&out, 1});
  return out;
}

void RandomForest::predict_grid(std::span<const double> rows,
                                std::size_t n_rows,
                                std::span<double> out) const {
  if (trees_.empty()) {
    std::fill_n(out.begin(), n_rows, 0.0);
    return;
  }
  // The mean over trees: summed from 0 in tree order, then divided.
  flat_.sum(rows, n_rows, 0.0, out);
  for (std::size_t g = 0; g < n_rows; ++g) {
    out[g] /= static_cast<double>(trees_.size());
  }
}

void RandomForest::save_state(Json& out) const {
  JsonArray trees;
  for (const auto& tree : trees_) trees.push_back(tree.save());
  out["trees"] = Json(std::move(trees));
}

void RandomForest::load_state(const Json& blob) {
  trees_.clear();
  for (const auto& tj : blob.at("trees").as_array()) {
    DecisionTree tree;
    tree.load(tj);
    trees_.push_back(std::move(tree));
  }
  flat_ = compile_trees(trees_);
}

}  // namespace adsala::ml
