#include "ml/flat_ensemble.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/json.h"

namespace adsala::ml {

namespace {

/// (row, tree) walks advanced together: enough independent load chains to
/// hide a cache-miss latency, few enough that the indices stay in registers
/// or L1.
constexpr std::size_t kLanes = 32;

/// Padded rows up to this many doubles live on the stack; larger batches
/// (whole training sets) take one heap buffer.
constexpr std::size_t kStackDoubles = 2048;

[[noreturn]] void reject(std::size_t tree, std::size_t node,
                         const std::string& what) {
  throw std::invalid_argument("tree " + std::to_string(tree) + " node " +
                              std::to_string(node) + ": " + what);
}

}  // namespace

void save_nodes(std::span<const TreeNode> nodes, Json& out) {
  JsonArray features, thresholds, values, lefts, rights;
  for (const TreeNode& node : nodes) {
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
}

std::vector<TreeNode> load_nodes(const Json& blob) {
  const JsonArray& features = blob.at("feature").as_array();
  const auto column = [&](const char* key) -> const JsonArray& {
    const JsonArray& values = blob.at(key).as_array();
    if (values.size() != features.size()) {
      throw std::invalid_argument(
          "tree node arrays differ in length: '" + std::string(key) +
          "' has " + std::to_string(values.size()) +
          " entries but 'feature' has " + std::to_string(features.size()));
    }
    return values;
  };
  const JsonArray& thresholds = column("threshold");
  const JsonArray& values = column("value");
  const JsonArray& lefts = column("left");
  const JsonArray& rights = column("right");
  std::vector<TreeNode> nodes(features.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    nodes[i].feature = features[i].as_int();
    nodes[i].threshold = thresholds[i].as_number();
    nodes[i].value = values[i].as_number();
    nodes[i].left = lefts[i].as_int();
    nodes[i].right = rights[i].as_int();
  }
  return nodes;
}

FlatEnsemble::FlatEnsemble(
    std::span<const std::span<const TreeNode>> trees) {
  constexpr auto kMaxNodes =
      static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max());
  std::vector<int> order;            // BFS position -> original node id
  std::vector<std::int32_t> level;   // BFS position -> depth
  std::vector<std::int32_t> first_child;  // BFS position of the left child
  std::vector<char> seen;
  for (std::size_t t = 0; t < trees.size(); ++t) {
    const std::span<const TreeNode> nodes = trees[t];
    const auto root = static_cast<std::int32_t>(feature_.size());
    roots_.push_back(root);
    if (nodes.empty()) {
      feature_.push_back(-1);
      left_.push_back(root);
      threshold_.push_back(0.0);
      depths_.push_back(0);
      continue;
    }
    order.assign(1, 0);
    level.assign(1, 0);
    first_child.assign(1, -1);
    seen.assign(nodes.size(), 0);
    seen[0] = 1;
    for (std::size_t q = 0; q < order.size(); ++q) {
      const auto id = static_cast<std::size_t>(order[q]);
      const TreeNode& node = nodes[id];
      if (node.is_leaf()) {
        if (std::isnan(node.value)) reject(t, id, "leaf value is NaN");
        continue;
      }
      first_child[q] = static_cast<std::int32_t>(order.size());
      for (const int child : {node.left, node.right}) {
        if (child < 0 || static_cast<std::size_t>(child) >= nodes.size()) {
          reject(t, id, "child " + std::to_string(child) + " out of range");
        }
        if (seen[static_cast<std::size_t>(child)] != 0) {
          reject(t, id,
                 "child " + std::to_string(child) +
                     " is reachable twice (cycle or shared child)");
        }
        seen[static_cast<std::size_t>(child)] = 1;
        order.push_back(child);
        level.push_back(level[q] + 1);
        first_child.push_back(-1);
      }
    }
    if (feature_.size() + order.size() > kMaxNodes) {
      throw std::invalid_argument("FlatEnsemble: too many nodes");
    }
    for (std::size_t q = 0; q < order.size(); ++q) {
      const TreeNode& node = nodes[static_cast<std::size_t>(order[q])];
      const auto self = root + static_cast<std::int32_t>(q);
      if (node.is_leaf()) {
        feature_.push_back(-1);  // pointed at the sentinel below
        left_.push_back(self);
        threshold_.push_back(node.value);
      } else {
        feature_.push_back(node.feature);
        left_.push_back(root + first_child[q]);
        threshold_.push_back(node.threshold);
        width_ = std::max(width_, static_cast<std::size_t>(node.feature) + 1);
      }
    }
    depths_.push_back(*std::max_element(level.begin(), level.end()));
  }
  for (auto& f : feature_) {
    if (f < 0) f = static_cast<std::int32_t>(width_);
  }
}

template <typename OnLeaf>
void FlatEnsemble::walk(std::span<const double> rows, std::size_t n_rows,
                        OnLeaf&& on_leaf) const {
  if (n_rows == 0 || roots_.empty()) return;
  if (rows.size() % n_rows != 0 || rows.size() / n_rows < width_) {
    throw std::invalid_argument(
        "FlatEnsemble: rows narrower than the model's features");
  }
  const std::size_t width = rows.size() / n_rows;

  // Each row's used columns followed by the -inf sentinel parked leaves
  // compare against. The stack buffer is left uninitialised: zeroing it
  // would cost more than the copy, and only the part written below is read.
  const std::size_t stride = width_ + 1;
  double stack_rows[kStackDoubles];
  std::vector<double> heap_rows;
  double* x = stack_rows;
  if (n_rows * stride > kStackDoubles) {
    heap_rows.resize(n_rows * stride);
    x = heap_rows.data();
  }
  for (std::size_t g = 0; g < n_rows; ++g) {
    std::copy_n(rows.data() + g * width, width_, x + g * stride);
    x[g * stride + width_] = -std::numeric_limits<double>::infinity();
  }

  const std::int32_t* feature = feature_.data();
  const std::int32_t* left = left_.data();
  const double* threshold = threshold_.data();
  const std::size_t n_trees = roots_.size();
  const std::size_t row_block = std::min(n_rows, kLanes);
  const std::size_t tree_block = std::max<std::size_t>(1, kLanes / row_block);

  std::int32_t idx[kLanes];
  const double* lane_row[kLanes];
  for (std::size_t t0 = 0; t0 < n_trees; t0 += tree_block) {
    const std::size_t t1 = std::min(n_trees, t0 + tree_block);
    const std::int32_t steps =
        *std::max_element(depths_.begin() + static_cast<std::ptrdiff_t>(t0),
                          depths_.begin() + static_cast<std::ptrdiff_t>(t1));
    for (std::size_t g0 = 0; g0 < n_rows; g0 += row_block) {
      const std::size_t g1 = std::min(n_rows, g0 + row_block);
      std::size_t lanes = 0;
      for (std::size_t t = t0; t < t1; ++t) {
        for (std::size_t g = g0; g < g1; ++g) {
          idx[lanes] = roots_[t];
          lane_row[lanes] = x + g * stride;
          ++lanes;
        }
      }
      for (std::int32_t s = 0; s < steps; ++s) {
        for (std::size_t l = 0; l < lanes; ++l) {
          const std::int32_t i = idx[l];
          idx[l] = left[i] + !(lane_row[l][feature[i]] <= threshold[i]);
        }
      }
      std::size_t l = 0;
      for (std::size_t t = t0; t < t1; ++t) {
        for (std::size_t g = g0; g < g1; ++g) {
          on_leaf(g, t, threshold[idx[l++]]);
        }
      }
    }
  }
}

void FlatEnsemble::sum(std::span<const double> rows, std::size_t n_rows,
                       double init, std::span<double> out) const {
  std::fill_n(out.begin(), n_rows, init);
  walk(rows, n_rows,
       [&](std::size_t g, std::size_t, double leaf) { out[g] += leaf; });
}

void FlatEnsemble::leaves(std::span<const double> rows, std::size_t n_rows,
                          std::span<double> out) const {
  const std::size_t n_trees = roots_.size();
  walk(rows, n_rows, [&](std::size_t g, std::size_t t, double leaf) {
    out[g * n_trees + t] = leaf;
  });
}

}  // namespace adsala::ml
