#include "ml/hist_gbt.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/thread_pool.h"
#include "ml/grid_scorer.h"

namespace adsala::ml {

namespace {

struct BinCell {
  double g = 0.0;
  double h = 0.0;
  std::size_t count = 0;
};

struct LeafState {
  int node_id = -1;
  std::vector<std::size_t> rows;
  double sum_g = 0.0;
  double sum_h = 0.0;
  int best_feature = -1;
  int best_bin = -1;
  double best_gain = 0.0;
};

double score(double g, double h, double reg_lambda) {
  return g * g / (h + reg_lambda);
}

}  // namespace

void LightGbmRegressor::fit(const Dataset& data) {
  check_fit_input(data);
  const std::size_t n = data.size();
  const std::size_t d = data.n_features();
  trees_.clear();

  // ---- quantile binning (once per fit) ------------------------------------
  // edges[j] holds ascending bin upper edges; bin b covers
  // (edges[b-1], edges[b]]; the last bin is open above.
  // Features are independent (each owns its edges[j] and the bins column
  // j), so the sort + bin-assignment fans out over the pool.
  std::vector<std::vector<double>> edges(d);
  std::vector<std::uint16_t> bins(n * d);
  ThreadPool& pool = ThreadPool::global();
  pool.parallel_for(pool.max_threads(), 0, d, [&](std::size_t j) {
    std::vector<double> vals = data.column(j);
    std::sort(vals.begin(), vals.end());
    vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
    const auto n_bins =
        std::min<std::size_t>(static_cast<std::size_t>(max_bins_),
                              std::max<std::size_t>(vals.size(), 1));
    auto& e = edges[j];
    e.reserve(n_bins);
    for (std::size_t b = 0; b + 1 < n_bins; ++b) {
      const std::size_t idx = (b + 1) * vals.size() / n_bins;
      e.push_back(vals[std::min(idx, vals.size() - 1)]);
    }
    e.push_back(std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < n; ++i) {
      const double v = data.row(i)[j];
      const auto it = std::lower_bound(e.begin(), e.end(), v);
      bins[i * d + j] =
          static_cast<std::uint16_t>(std::distance(e.begin(), it));
    }
  });

  base_score_ = 0.0;
  for (std::size_t i = 0; i < n; ++i) base_score_ += data.label(i);
  base_score_ /= static_cast<double>(n);

  std::vector<double> pred(n, base_score_);
  std::vector<double> round_pred(n);  // this round's tree, per training row
  std::vector<double> g(n), h(n);

  const auto max_b = static_cast<std::size_t>(max_bins_);
  std::vector<BinCell> hist(d * max_b);

  auto find_best_split = [&](LeafState& leaf) {
    leaf.best_feature = -1;
    leaf.best_gain = 0.0;
    if (leaf.rows.size() < 2 * static_cast<std::size_t>(min_child_samples_)) {
      return;
    }
    // Histogram build: each feature owns the disjoint hist slice
    // [j*max_b, (j+1)*max_b), so the accumulation parallelises over
    // features. Small leaves keep the cache-friendlier row-major serial
    // walk instead of paying the fork/join.
    constexpr std::size_t kParallelCells = 1 << 14;
    if (leaf.rows.size() * d >= kParallelCells) {
      pool.parallel_for(pool.max_threads(), 0, d, [&](std::size_t j) {
        BinCell* col = hist.data() + j * max_b;
        std::fill(col, col + max_b, BinCell{});
        for (std::size_t r : leaf.rows) {
          BinCell& cell = col[bins[r * d + j]];
          cell.g += g[r];
          cell.h += h[r];
          ++cell.count;
        }
      });
    } else {
      std::fill(hist.begin(), hist.end(), BinCell{});
      for (std::size_t r : leaf.rows) {
        for (std::size_t j = 0; j < d; ++j) {
          BinCell& cell = hist[j * max_b + bins[r * d + j]];
          cell.g += g[r];
          cell.h += h[r];
          ++cell.count;
        }
      }
    }
    const double parent = score(leaf.sum_g, leaf.sum_h, reg_lambda_);
    for (std::size_t j = 0; j < d; ++j) {
      const std::size_t n_bins = edges[j].size();
      double gl = 0.0, hl = 0.0;
      std::size_t cl = 0;
      for (std::size_t b = 0; b + 1 < n_bins; ++b) {
        const BinCell& cell = hist[j * max_b + b];
        gl += cell.g;
        hl += cell.h;
        cl += cell.count;
        if (cl < static_cast<std::size_t>(min_child_samples_)) continue;
        const std::size_t cr = leaf.rows.size() - cl;
        if (cr < static_cast<std::size_t>(min_child_samples_)) break;
        const double gr = leaf.sum_g - gl;
        const double hr = leaf.sum_h - hl;
        const double gain =
            0.5 * (score(gl, hl, reg_lambda_) + score(gr, hr, reg_lambda_) -
                   parent);
        if (gain > leaf.best_gain) {
          leaf.best_gain = gain;
          leaf.best_feature = static_cast<int>(j);
          leaf.best_bin = static_cast<int>(b);
        }
      }
    }
  };

  for (int round = 0; round < n_estimators_; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      g[i] = pred[i] - data.label(i);
      h[i] = 1.0;
    }

    std::vector<TreeNode> nodes;
    nodes.emplace_back();
    std::vector<LeafState> leaves;

    LeafState root;
    root.node_id = 0;
    root.rows.resize(n);
    std::iota(root.rows.begin(), root.rows.end(), std::size_t{0});
    for (std::size_t i = 0; i < n; ++i) {
      root.sum_g += g[i];
      root.sum_h += h[i];
    }
    find_best_split(root);
    leaves.push_back(std::move(root));

    // Leaf-wise (best-first) growth: always split the leaf with max gain.
    while (static_cast<int>(leaves.size()) < num_leaves_) {
      std::size_t best = leaves.size();
      double best_gain = 0.0;
      for (std::size_t l = 0; l < leaves.size(); ++l) {
        if (leaves[l].best_feature >= 0 && leaves[l].best_gain > best_gain) {
          best_gain = leaves[l].best_gain;
          best = l;
        }
      }
      if (best == leaves.size()) break;  // no leaf has a positive-gain split

      LeafState leaf = std::move(leaves[best]);
      const auto j = static_cast<std::size_t>(leaf.best_feature);
      const auto split_bin = static_cast<std::uint16_t>(leaf.best_bin);

      LeafState left, right;
      for (std::size_t r : leaf.rows) {
        if (bins[r * d + j] <= split_bin) {
          left.rows.push_back(r);
          left.sum_g += g[r];
          left.sum_h += h[r];
        } else {
          right.rows.push_back(r);
          right.sum_g += g[r];
          right.sum_h += h[r];
        }
      }

      left.node_id = static_cast<int>(nodes.size());
      nodes.emplace_back();
      right.node_id = static_cast<int>(nodes.size());
      nodes.emplace_back();
      TreeNode& parent = nodes[static_cast<std::size_t>(leaf.node_id)];
      parent.feature = leaf.best_feature;
      parent.threshold = edges[j][static_cast<std::size_t>(leaf.best_bin)];
      parent.left = left.node_id;
      parent.right = right.node_id;

      find_best_split(left);
      find_best_split(right);
      leaves[best] = std::move(left);
      leaves.push_back(std::move(right));
    }

    for (const auto& leaf : leaves) {
      nodes[static_cast<std::size_t>(leaf.node_id)].value =
          learning_rate_ * (-leaf.sum_g / (leaf.sum_h + reg_lambda_));
    }

    FlatEnsemble({&nodes, 1}).leaves(data.flat(), n, round_pred);
    for (std::size_t i = 0; i < n; ++i) pred[i] += round_pred[i];
    trees_.push_back(std::move(nodes));
  }
  flat_ = FlatEnsemble(trees_);
}

double LightGbmRegressor::predict_one(std::span<const double> x) const {
  double out = 0.0;
  predict_grid(x, 1, {&out, 1});
  return out;
}

void LightGbmRegressor::predict_grid(std::span<const double> rows,
                                     std::size_t n_rows,
                                     std::span<double> out) const {
  flat_.sum(rows, n_rows, base_score_, out);
}

std::shared_ptr<const GridScorer> LightGbmRegressor::grid_scorer(
    const GridLayout& layout, std::string* why_not) const {
  return GridScorer::build(trees_, base_score_, layout, why_not);
}

Json LightGbmRegressor::save() const {
  Json out;
  out["model"] = Json(name());
  JsonObject pj;
  for (const auto& [k, v] : get_params()) pj[k] = Json(v);
  out["params"] = Json(std::move(pj));
  out["base_score"] = Json(base_score_);
  JsonArray trees;
  for (const auto& nodes : trees_) {
    JsonArray features, thresholds, values, lefts, rights;
    for (const auto& node : nodes) {
      features.emplace_back(node.feature);
      thresholds.emplace_back(node.threshold);
      values.emplace_back(node.value);
      lefts.emplace_back(node.left);
      rights.emplace_back(node.right);
    }
    Json tj;
    tj["feature"] = Json(std::move(features));
    tj["threshold"] = Json(std::move(thresholds));
    tj["value"] = Json(std::move(values));
    tj["left"] = Json(std::move(lefts));
    tj["right"] = Json(std::move(rights));
    trees.push_back(std::move(tj));
  }
  out["trees"] = Json(std::move(trees));
  return out;
}

void LightGbmRegressor::load(const Json& blob) {
  Params p;
  for (const auto& [k, v] : blob.at("params").as_object()) {
    p[k] = v.as_number();
  }
  set_params(p);
  base_score_ = blob.at("base_score").as_number();
  trees_.clear();
  for (const auto& tj : blob.at("trees").as_array()) {
    const auto& features = tj.at("feature").as_array();
    std::vector<TreeNode> nodes(features.size());
    for (std::size_t i = 0; i < features.size(); ++i) {
      nodes[i].feature = features[i].as_int();
      nodes[i].threshold = tj.at("threshold").as_array()[i].as_number();
      nodes[i].value = tj.at("value").as_array()[i].as_number();
      nodes[i].left = tj.at("left").as_array()[i].as_int();
      nodes[i].right = tj.at("right").as_array()[i].as_int();
    }
    trees_.push_back(std::move(nodes));
  }
  flat_ = FlatEnsemble(trees_);
}

}  // namespace adsala::ml
