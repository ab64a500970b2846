#include "ml/gbt.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stack>

#include "common/rng.h"
#include "ml/grid_scorer.h"
#include "ml/presorted.h"

namespace adsala::ml {

namespace {

struct GradPair {
  double g = 0.0;
  double h = 0.0;
};

struct BuildItem {
  int node = -1;
  std::size_t begin = 0;
  std::size_t end = 0;
  int depth = 0;
};

double leaf_weight(double g, double h, double reg_lambda) {
  return -g / (h + reg_lambda);
}

double score(double g, double h, double reg_lambda) {
  return g * g / (h + reg_lambda);
}

}  // namespace

void XgbRegressor::fit(const Dataset& data) {
  check_fit_input(data);
  const std::size_t n = data.size();
  const std::size_t d = data.n_features();
  trees_.clear();

  base_score_ = 0.0;
  for (std::size_t i = 0; i < n; ++i) base_score_ += data.label(i);
  base_score_ /= static_cast<double>(n);

  std::vector<double> pred(n, base_score_);
  std::vector<double> round_pred(n);  // this round's tree, per training row
  std::vector<GradPair> grad(n);
  Rng rng(seed_);

  std::vector<std::size_t> feature_ids(d);
  std::iota(feature_ids.begin(), feature_ids.end(), std::size_t{0});
  const auto n_cols = static_cast<std::size_t>(
      std::clamp(colsample_, 1.0 / static_cast<double>(d), 1.0) *
          static_cast<double>(d) +
      0.999);

  const SortedColumns sorted(data);
  ColumnBlock columns;
  std::vector<char> in_round(n);

  for (int round = 0; round < n_estimators_; ++round) {
    // Squared-error gradients w.r.t. current prediction.
    for (std::size_t i = 0; i < n; ++i) {
      grad[i].g = pred[i] - data.label(i);
      grad[i].h = 1.0;
    }

    // Row subsample for this round.
    std::vector<std::size_t> rows;
    rows.reserve(n);
    if (subsample_ < 1.0) {
      for (std::size_t i = 0; i < n; ++i) {
        if (rng.uniform() < subsample_) rows.push_back(i);
      }
      if (rows.size() < 2) {
        rows.resize(n);
        std::iota(rows.begin(), rows.end(), std::size_t{0});
      }
    } else {
      rows.resize(n);
      std::iota(rows.begin(), rows.end(), std::size_t{0});
    }

    // Column subsample for this round.
    if (n_cols < d) {
      for (std::size_t i = 0; i < n_cols; ++i) {
        const auto j = i + static_cast<std::size_t>(rng.below(d - i));
        std::swap(feature_ids[i], feature_ids[j]);
      }
    }

    std::fill(in_round.begin(), in_round.end(), 0);
    for (const std::size_t r : rows) in_round[r] = 1;
    columns.carve(sorted, {feature_ids.data(), n_cols}, in_round);

    std::vector<TreeNode> nodes;
    nodes.emplace_back();
    std::stack<BuildItem> todo;
    todo.push({0, 0, rows.size(), 0});

    while (!todo.empty()) {
      const BuildItem item = todo.top();
      todo.pop();

      double sum_g = 0.0, sum_h = 0.0;
      for (std::size_t i = item.begin; i < item.end; ++i) {
        sum_g += grad[rows[i]].g;
        sum_h += grad[rows[i]].h;
      }
      nodes[static_cast<std::size_t>(item.node)].value =
          learning_rate_ * leaf_weight(sum_g, sum_h, reg_lambda_);

      if (item.depth >= max_depth_ || item.end - item.begin < 2) continue;

      // Exact greedy split over the sampled feature set.
      int best_feature = -1;
      double best_threshold = 0.0;
      double best_gain = 0.0;
      const double parent_score = score(sum_g, sum_h, reg_lambda_);

      for (std::size_t t = 0; t < n_cols; ++t) {
        const std::size_t j = feature_ids[t];
        const std::span<const ColumnEntry> col =
            columns.column(t, item.begin, item.end);
        if (col.front().value == col.back().value) continue;

        double gl = 0.0, hl = 0.0;
        for (std::size_t i = 0; i + 1 < col.size(); ++i) {
          gl += grad[col[i].row].g;
          hl += grad[col[i].row].h;
          if (col[i].value == col[i + 1].value) continue;
          const double hr = sum_h - hl;
          if (hl < min_child_weight_ || hr < min_child_weight_) continue;
          const double gr = sum_g - gl;
          const double gain = 0.5 * (score(gl, hl, reg_lambda_) +
                                     score(gr, hr, reg_lambda_) -
                                     parent_score) -
                              gamma_;
          if (gain > best_gain) {
            best_gain = gain;
            best_feature = static_cast<int>(j);
            best_threshold = 0.5 * (col[i].value + col[i + 1].value);
          }
        }
      }

      if (best_feature < 0) continue;

      const auto mid_it = std::partition(
          rows.begin() + static_cast<std::ptrdiff_t>(item.begin),
          rows.begin() + static_cast<std::ptrdiff_t>(item.end),
          [&](std::size_t r) {
            return data.row(r)[static_cast<std::size_t>(best_feature)] <=
                   best_threshold;
          });
      const auto mid = static_cast<std::size_t>(mid_it - rows.begin());
      if (mid == item.begin || mid == item.end) continue;
      // Children at max_depth become leaves without a split search.
      if (item.depth + 1 < max_depth_) {
        columns.split(rows, item.begin, mid, item.end);
      }

      const int left_id = static_cast<int>(nodes.size());
      nodes.emplace_back();
      const int right_id = static_cast<int>(nodes.size());
      nodes.emplace_back();
      TreeNode& parent = nodes[static_cast<std::size_t>(item.node)];
      parent.feature = best_feature;
      parent.threshold = best_threshold;
      parent.left = left_id;
      parent.right = right_id;

      todo.push({left_id, item.begin, mid, item.depth + 1});
      todo.push({right_id, mid, item.end, item.depth + 1});
    }

    FlatEnsemble({&nodes, 1}).leaves(data.flat(), n, round_pred);
    for (std::size_t i = 0; i < n; ++i) pred[i] += round_pred[i];
    trees_.push_back(std::move(nodes));
  }
  flat_ = FlatEnsemble(trees_);
}

double BoostedTrees::predict_one(std::span<const double> x) const {
  double out = 0.0;
  predict_grid(x, 1, {&out, 1});
  return out;
}

void BoostedTrees::predict_grid(std::span<const double> rows,
                                std::size_t n_rows,
                                std::span<double> out) const {
  flat_.sum(rows, n_rows, base_score_, out);
}

std::shared_ptr<const GridScorer> BoostedTrees::grid_scorer(
    const GridLayout& layout, std::string* why_not) const {
  return GridScorer::build(trees_, base_score_, layout, why_not);
}

void BoostedTrees::save_state(Json& out) const {
  out["base_score"] = Json(base_score_);
  JsonArray trees;
  for (const auto& nodes : trees_) {
    Json tree;
    save_nodes(nodes, tree);
    trees.push_back(std::move(tree));
  }
  out["trees"] = Json(std::move(trees));
}

void BoostedTrees::load_state(const Json& blob) {
  base_score_ = blob.at("base_score").as_number();
  trees_.clear();
  for (const auto& tree : blob.at("trees").as_array()) {
    trees_.push_back(load_nodes(tree));
  }
  flat_ = FlatEnsemble(trees_);
}

}  // namespace adsala::ml
