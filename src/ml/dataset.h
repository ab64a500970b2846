// Tabular regression dataset: flat row-major feature storage + labels.
//
// The ADSALA training set is ~10^3-10^4 rows x 10-20 features (paper SS II-B),
// so a contiguous flat array with span row views is both the simplest and
// the fastest representation for every model in this library.
//
// The container is schema-agnostic: columns are identified only by the name
// list passed at construction. The canonical ADSALA column lists (17-column
// Table II base schema and the op-aware schema with the one-hot op_* /
// kernel_* columns) are defined once in preprocess/features.h;
// GatherData::to_dataset emits them in that order.
#pragma once

#include <span>
#include <string>
#include <vector>

namespace adsala::ml {

class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(std::vector<std::string> feature_names)
      : feature_names_(std::move(feature_names)) {}

  std::size_t size() const { return y_.size(); }
  std::size_t n_features() const { return feature_names_.size(); }
  bool empty() const { return y_.empty(); }

  const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }

  /// Appends one labelled row; x.size() must equal n_features().
  void add_row(std::span<const double> x, double y);

  std::span<const double> row(std::size_t i) const {
    return {x_.data() + i * n_features(), n_features()};
  }
  std::span<double> mutable_row(std::size_t i) {
    return {x_.data() + i * n_features(), n_features()};
  }

  double label(std::size_t i) const { return y_[i]; }
  double& mutable_label(std::size_t i) { return y_[i]; }
  const std::vector<double>& labels() const { return y_; }

  /// Copy of feature column j.
  std::vector<double> column(std::size_t j) const;

  /// New dataset containing rows[idx[0]], rows[idx[1]], ...
  Dataset subset(std::span<const std::size_t> indices) const;

  /// New dataset keeping only the given feature columns (in that order).
  Dataset select_features(std::span<const std::size_t> keep) const;

  /// Flat feature storage (row-major), exposed for linear-algebra paths.
  const std::vector<double>& flat() const { return x_; }

 private:
  std::vector<std::string> feature_names_;
  std::vector<double> x_;  // row-major, size() * n_features()
  std::vector<double> y_;
};

}  // namespace adsala::ml
