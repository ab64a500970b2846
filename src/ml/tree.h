// CART regression tree with sample weights.
//
// Exact greedy splitting on sorted feature values, weighted-variance
// criterion. Sample-weight support is what lets AdaBoost.R2 and the random
// forest reuse this one implementation; feature subsampling (max_features)
// serves the forest. Non-parametric and robust to the skewed feature
// distributions of the GEMM dataset (paper Table I).
//
// The sorted values come from presorted columns (ml/presorted.h): every
// column is sorted by (value, row) once per fit (once per ensemble fit for
// the forest and AdaBoost), all d columns are carved because max_features
// draws per node, and each node scans its own [begin, end) range of them.
#pragma once

#include <cstdint>

#include "ml/flat_ensemble.h"
#include "ml/model.h"
#include "ml/presorted.h"

namespace adsala::ml {

class DecisionTree : public Regressor {
 public:
  explicit DecisionTree(Params params = {}) { set_params(params); }

  void fit(const Dataset& data) override;

  /// Weighted fit; weights must be non-negative, one per row.
  void fit_weighted(const Dataset& data, std::span<const double> weights);

  /// The same fit from `data`'s columns sorted beforehand, so an ensemble
  /// sorts once and grows every member from the one copy.
  void fit_weighted(const Dataset& data, std::span<const double> weights,
                    const SortedColumns& sorted);

  double predict_one(std::span<const double> x) const override;
  void predict_grid(std::span<const double> rows, std::size_t n_rows,
                    std::span<double> out) const override;
  std::size_t input_width() const override { return flat_.input_width(); }
  std::string name() const override { return "decision_tree"; }

  Params get_params() const override {
    return {{"max_depth", static_cast<double>(max_depth_)},
            {"min_samples_split", static_cast<double>(min_samples_split_)},
            {"min_samples_leaf", static_cast<double>(min_samples_leaf_)},
            {"max_features", max_features_},
            {"seed", static_cast<double>(seed_)}};
  }
  void set_params(const Params& params) override {
    max_depth_ = static_cast<int>(param_or(params, "max_depth", 12));
    min_samples_split_ =
        static_cast<int>(param_or(params, "min_samples_split", 2));
    min_samples_leaf_ =
        static_cast<int>(param_or(params, "min_samples_leaf", 1));
    max_features_ = param_or(params, "max_features", 1.0);
    seed_ = static_cast<std::uint64_t>(param_or(params, "seed", 7));
  }

  Json save() const override;
  void load(const Json& blob) override;
  std::unique_ptr<Regressor> clone() const override {
    return std::make_unique<DecisionTree>(get_params());
  }

  const std::vector<TreeNode>& nodes() const { return nodes_; }
  std::size_t depth() const;  ///< actual depth of the fitted tree

 private:

  int max_depth_ = 12;
  int min_samples_split_ = 2;
  int min_samples_leaf_ = 1;
  double max_features_ = 1.0;  ///< fraction of features tried per split
  std::uint64_t seed_ = 7;
  std::vector<TreeNode> nodes_;
  FlatEnsemble flat_;  ///< nodes_ compiled for prediction
};

/// Compiles fitted trees, in order, into one FlatEnsemble (the forest and
/// AdaBoost combine their members' leaves).
FlatEnsemble compile_trees(std::span<const DecisionTree> trees);

}  // namespace adsala::ml
