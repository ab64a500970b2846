#include "ml/tree.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stack>

#include "common/rng.h"

namespace adsala::ml {

namespace {

struct BuildItem {
  int node = -1;
  std::size_t begin = 0;  // range in the shared index array
  std::size_t end = 0;
  int depth = 0;
};

struct SplitResult {
  int feature = -1;
  double threshold = 0.0;
  double gain = 0.0;     // SSE reduction
  std::size_t n_left = 0;
};

}  // namespace

void DecisionTree::fit(const Dataset& data) {
  check_fit_input(data);
  const std::vector<double> w(data.size(), 1.0);
  fit_weighted(data, w);
}

void DecisionTree::fit_weighted(const Dataset& data,
                                std::span<const double> weights) {
  fit_weighted(data, weights, SortedColumns(data));
}

void DecisionTree::fit_weighted(const Dataset& data,
                                std::span<const double> weights,
                                const SortedColumns& sorted) {
  check_fit_input(data);
  if (weights.size() != data.size()) {
    throw std::invalid_argument("DecisionTree: weight count mismatch");
  }
  if (sorted.n_rows() != data.size()) {
    throw std::invalid_argument("DecisionTree: sorted columns of other data");
  }
  const std::size_t n = data.size();
  const std::size_t d = data.n_features();
  nodes_.clear();

  std::vector<std::size_t> indices(n);
  std::iota(indices.begin(), indices.end(), std::size_t{0});

  Rng rng(seed_);
  const auto n_try = static_cast<std::size_t>(
      std::clamp(max_features_, 1.0 / static_cast<double>(d), 1.0) *
          static_cast<double>(d) +
      0.999);
  std::vector<std::size_t> feature_ids(d);
  std::iota(feature_ids.begin(), feature_ids.end(), std::size_t{0});

  // Every column, every row: max_features draws its subset per node, so the
  // carve takes feature_ids while it is still 0..d-1.
  ColumnBlock columns;
  columns.carve(sorted, feature_ids, std::vector<char>(n, 1));

  auto weighted_mean = [&](std::size_t begin, std::size_t end) {
    double sw = 0.0, swy = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t r = indices[i];
      sw += weights[r];
      swy += weights[r] * data.label(r);
    }
    return sw > 0.0 ? swy / sw : 0.0;
  };

  auto best_split = [&](std::size_t begin, std::size_t end) -> SplitResult {
    SplitResult best;
    const std::size_t count = end - begin;

    double sw = 0.0, swy = 0.0, swy2 = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t r = indices[i];
      const double w = weights[r];
      const double y = data.label(r);
      sw += w;
      swy += w * y;
      swy2 += w * y * y;
    }
    if (sw <= 0.0) return best;
    const double parent_sse = swy2 - swy * swy / sw;
    if (parent_sse <= 1e-12) return best;  // already pure

    // Feature subsample (forest-style) drawn fresh per node.
    if (n_try < d) {
      for (std::size_t i = 0; i < n_try; ++i) {
        const auto j =
            i + static_cast<std::size_t>(rng.below(d - i));
        std::swap(feature_ids[i], feature_ids[j]);
      }
    }

    for (std::size_t t = 0; t < n_try; ++t) {
      const std::size_t j = feature_ids[t];
      const std::span<const ColumnEntry> col = columns.column(j, begin, end);
      if (col.front().value == col.back().value) continue;

      double lw = 0.0, lwy = 0.0, lwy2 = 0.0;
      for (std::size_t i = 0; i + 1 < count; ++i) {
        const std::size_t r = col[i].row;
        const double w = weights[r];
        const double y = data.label(r);
        lw += w;
        lwy += w * y;
        lwy2 += w * y * y;
        if (col[i].value == col[i + 1].value) continue;
        const std::size_t n_left = i + 1;
        if (n_left < static_cast<std::size_t>(min_samples_leaf_) ||
            count - n_left < static_cast<std::size_t>(min_samples_leaf_)) {
          continue;
        }
        const double rw = sw - lw;
        if (lw <= 0.0 || rw <= 0.0) continue;
        const double sse_left = lwy2 - lwy * lwy / lw;
        const double rwy = swy - lwy;
        const double rwy2 = swy2 - lwy2;
        const double sse_right = rwy2 - rwy * rwy / rw;
        const double gain = parent_sse - sse_left - sse_right;
        if (gain > best.gain) {
          best.feature = static_cast<int>(j);
          best.threshold = 0.5 * (col[i].value + col[i + 1].value);
          best.gain = gain;
          best.n_left = n_left;
        }
      }
    }
    return best;
  };

  nodes_.emplace_back();
  std::stack<BuildItem> todo;
  todo.push({0, 0, n, 0});

  while (!todo.empty()) {
    const BuildItem item = todo.top();
    todo.pop();
    TreeNode& node = nodes_[static_cast<std::size_t>(item.node)];
    node.value = weighted_mean(item.begin, item.end);

    const std::size_t count = item.end - item.begin;
    if (item.depth >= max_depth_ ||
        count < static_cast<std::size_t>(min_samples_split_)) {
      continue;
    }
    const SplitResult split = best_split(item.begin, item.end);
    if (split.feature < 0 || split.gain <= 0.0) continue;

    // Partition the shared index range in place.
    const auto mid_it = std::partition(
        indices.begin() + static_cast<std::ptrdiff_t>(item.begin),
        indices.begin() + static_cast<std::ptrdiff_t>(item.end),
        [&](std::size_t r) {
          return data.row(r)[static_cast<std::size_t>(split.feature)] <=
                 split.threshold;
        });
    const auto mid =
        static_cast<std::size_t>(mid_it - indices.begin());
    if (mid == item.begin || mid == item.end) continue;  // numeric ties
    // Children at max_depth become leaves without a split search.
    if (item.depth + 1 < max_depth_) {
      columns.split(indices, item.begin, mid, item.end);
    }

    const int left_id = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    const int right_id = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    // nodes_ may have reallocated; re-reference.
    TreeNode& parent = nodes_[static_cast<std::size_t>(item.node)];
    parent.feature = split.feature;
    parent.threshold = split.threshold;
    parent.left = left_id;
    parent.right = right_id;

    todo.push({left_id, item.begin, mid, item.depth + 1});
    todo.push({right_id, mid, item.end, item.depth + 1});
  }
  flat_ = compile_trees({this, 1});
}

FlatEnsemble compile_trees(std::span<const DecisionTree> trees) {
  std::vector<std::span<const TreeNode>> nodes;
  nodes.reserve(trees.size());
  for (const auto& tree : trees) nodes.emplace_back(tree.nodes());
  return FlatEnsemble(nodes);
}

double DecisionTree::predict_one(std::span<const double> x) const {
  double out = 0.0;
  predict_grid(x, 1, {&out, 1});
  return out;
}

void DecisionTree::predict_grid(std::span<const double> rows,
                                std::size_t n_rows,
                                std::span<double> out) const {
  if (flat_.n_trees() == 0) {  // unfitted
    std::fill_n(out.begin(), n_rows, 0.0);
    return;
  }
  flat_.leaves(rows, n_rows, out);
}

std::size_t DecisionTree::depth() const {
  if (nodes_.empty()) return 0;
  std::size_t max_depth = 0;
  std::stack<std::pair<int, std::size_t>> todo;
  todo.push({0, 1});
  while (!todo.empty()) {
    const auto [id, depth] = todo.top();
    todo.pop();
    max_depth = std::max(max_depth, depth);
    const TreeNode& node = nodes_[static_cast<std::size_t>(id)];
    if (!node.is_leaf()) {
      todo.push({node.left, depth + 1});
      todo.push({node.right, depth + 1});
    }
  }
  return max_depth;
}

Json DecisionTree::save() const {
  Json out;
  out["model"] = Json(name());
  JsonObject pj;
  for (const auto& [k, v] : get_params()) pj[k] = Json(v);
  out["params"] = Json(std::move(pj));
  JsonArray features, thresholds, values, lefts, rights;
  for (const auto& node : nodes_) {
    features.emplace_back(node.feature);
    thresholds.emplace_back(node.threshold);
    values.emplace_back(node.value);
    lefts.emplace_back(node.left);
    rights.emplace_back(node.right);
  }
  out["feature"] = Json(std::move(features));
  out["threshold"] = Json(std::move(thresholds));
  out["value"] = Json(std::move(values));
  out["left"] = Json(std::move(lefts));
  out["right"] = Json(std::move(rights));
  return out;
}

void DecisionTree::load(const Json& blob) {
  Params p;
  for (const auto& [k, v] : blob.at("params").as_object()) {
    p[k] = v.as_number();
  }
  set_params(p);
  const auto& features = blob.at("feature").as_array();
  nodes_.assign(features.size(), TreeNode{});
  for (std::size_t i = 0; i < features.size(); ++i) {
    nodes_[i].feature = features[i].as_int();
    nodes_[i].threshold = blob.at("threshold").as_array()[i].as_number();
    nodes_[i].value = blob.at("value").as_array()[i].as_number();
    nodes_[i].left = blob.at("left").as_array()[i].as_int();
    nodes_[i].right = blob.at("right").as_array()[i].as_int();
  }
  flat_ = compile_trees({this, 1});
}

}  // namespace adsala::ml
