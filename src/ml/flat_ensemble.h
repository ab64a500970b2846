// The one evaluator behind every tree model (decision tree, random forest,
// AdaBoost.R2, XGBoost- and LightGBM-style boosting).
//
// The models keep their trees as TreeNode records (that is what they fit
// and serialise) and compile them into one struct-of-arrays over all trees:
// an int32 split feature, an int32 left child and a double threshold, with
// a leaf's value stored in the threshold slot. Each tree is renumbered in
// BFS order so a node's right child is always left + 1, and every leaf
// points at itself and at a sentinel column that holds -inf. One step of a
// walk is then the same branch-free update for split and leaf alike,
//
//   idx = left[idx] + !(x[feature[idx]] <= threshold[idx])
//
// (a parked leaf compares -inf <= value and stays put; NaN features compare
// false and go right, as `x <= threshold ? left : right` does). Every tree
// therefore walks exactly its depth, and many (row, tree) walks advance in
// lockstep: their load chains are independent, so they overlap in the
// core instead of running one dependent chain at a time.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace adsala {
class Json;
}

namespace adsala::ml {

/// Flat node record; leaves have feature == -1 and carry `value`.
struct TreeNode {
  int feature = -1;
  double threshold = 0.0;
  double value = 0.0;
  int left = -1;
  int right = -1;

  bool is_leaf() const { return feature < 0; }
};

/// A tree in the model file: five arrays "feature", "threshold", "value",
/// "left" and "right", entry i of each describing node i (stored order,
/// root at 0). save_nodes adds them to `out`; load_nodes reads them back
/// and throws std::invalid_argument, naming the array, when their lengths
/// differ. Child indices are checked when the nodes compile (FlatEnsemble).
void save_nodes(std::span<const TreeNode> nodes, Json& out);
std::vector<TreeNode> load_nodes(const Json& blob);

class FlatEnsemble {
 public:
  FlatEnsemble() = default;

  /// Compiles `trees` (each rooted at node 0) in order. An empty tree
  /// compiles to a single leaf of value 0. Throws std::invalid_argument when
  /// a child index is out of range, a node is reachable twice (a cycle or a
  /// shared child), a leaf value is NaN, or the ensemble outgrows int32
  /// node indices. Nodes unreachable from the root are ignored.
  explicit FlatEnsemble(std::span<const std::span<const TreeNode>> trees);
  explicit FlatEnsemble(std::span<const std::vector<TreeNode>> trees)
      : FlatEnsemble(std::vector<std::span<const TreeNode>>(trees.begin(),
                                                            trees.end())) {}

  std::size_t n_trees() const { return roots_.size(); }

  /// Highest split feature + 1: every row handed to sum()/leaves() must
  /// have at least this many columns (0 when no tree splits).
  std::size_t input_width() const { return width_; }

  /// For each of the n_rows rows stored back to back in `rows`
  /// (rows.size() / n_rows values each): out[g] = init + the leaf values of
  /// every tree, added in tree order.
  void sum(std::span<const double> rows, std::size_t n_rows, double init,
           std::span<double> out) const;

  /// out[g * n_trees() + t] = the leaf value tree t reaches for row g.
  void leaves(std::span<const double> rows, std::size_t n_rows,
              std::span<double> out) const;

 private:
  template <typename OnLeaf>
  void walk(std::span<const double> rows, std::size_t n_rows,
            OnLeaf&& on_leaf) const;

  std::vector<std::int32_t> feature_;  ///< leaves: the sentinel column
  std::vector<std::int32_t> left_;     ///< leaves: their own index
  std::vector<double> threshold_;      ///< leaves: their value
  std::vector<std::int32_t> roots_;
  std::vector<std::int32_t> depths_;  ///< steps from root to deepest leaf
  std::size_t width_ = 0;
};

}  // namespace adsala::ml
