// End-to-end preprocessing pipeline (the paper's Fig. 2 "Data Preprocessing"
// box, reusable at runtime from the saved config file).
//
// fit_transform order follows SS IV-C exactly:
//   1. label transform (log-runtime; optional, see DESIGN.md SS6),
//   2. Yeo-Johnson per feature (MLE lambda),
//   3. standardisation,
//   4. LOF outlier-row removal (train-time only; needs standardised scales),
//   5. correlation filter (|r| > 0.80 -> drop the worse member).
// transform_row applies the fitted 2/3/5 steps to a raw runtime query.
//
// Columns listed in PipelineConfig::categorical (the one-hot op / kernel
// indicators of the op-aware schema, see preprocess/features.h) skip stages
// 2 and 3 — a 0/1 indicator must stay a 0/1 indicator — and are dropped
// outright when constant over the training rows (a single-op, single-kernel
// campaign carries no information in them). Non-constant categorical columns
// still pass through the correlation filter, which prunes redundant one-hot
// pairs (op_gemm vs op_syrk are perfectly anti-correlated).
#pragma once

#include <span>

#include "common/json.h"
#include "ml/dataset.h"

namespace adsala::preprocess {

struct PipelineConfig {
  bool yeo_johnson = true;
  bool standardize = true;
  bool lof = true;
  std::size_t lof_k = 20;
  double lof_threshold = 1.5;
  bool corr_filter = true;
  double corr_threshold = 0.80;
  bool log_label = true;  ///< train on log(t); argmin over threads unaffected
  /// Restrict the candidate feature set before the correlation filter
  /// (indices into the raw dataset); empty = all features. Used by the
  /// feature-group ablation study.
  std::vector<std::size_t> feature_whitelist;
  /// Raw-column indices treated as categorical one-hots: passed through
  /// untransformed (no Yeo-Johnson / standardisation) and dropped when
  /// constant over the training rows. See preprocess/features.h.
  std::vector<std::size_t> categorical;
};

class Pipeline {
 public:
  explicit Pipeline(PipelineConfig config = {}) : cfg_(config) {}

  /// Fits every stage on `raw` and returns the fully transformed training
  /// set (possibly fewer rows after LOF, fewer columns after the filter).
  ml::Dataset fit_transform(const ml::Dataset& raw);

  /// Applies the fitted feature stages to one raw row (runtime hot path).
  std::vector<double> transform_row(std::span<const double> raw) const;

  /// The fitted stages for one value of kept column `pos` (raw input
  /// column kept_features()[pos]); transform_row applies this per column.
  double transform_kept(std::size_t pos, double raw_value) const;

  double transform_label(double y) const;
  double inverse_label(double y) const;

  const PipelineConfig& config() const { return cfg_; }
  /// Width of the raw rows this pipeline was fitted on; transform_row
  /// expects this many values. Zero before fit/load.
  std::size_t n_input_features() const { return names_.size(); }
  /// Names of the raw input columns at fit time.
  const std::vector<std::string>& input_feature_names() const {
    return names_;
  }
  /// Each input column's index in preprocess::op_aware_feature_names(), or
  /// kNoSchemaColumn, resolved by name at fit/load (see features.h).
  const std::vector<std::size_t>& schema_columns() const { return columns_; }
  const std::vector<std::size_t>& kept_features() const { return keep_; }
  const std::vector<double>& lambdas() const { return lambdas_; }
  std::size_t rows_removed() const { return rows_removed_; }

  Json save() const;
  void load(const Json& blob);

 private:
  PipelineConfig cfg_;
  std::vector<std::string> names_;     // original feature names
  std::vector<std::size_t> columns_;   // resolve_columns(names_)
  std::vector<double> lambdas_;        // per original feature (1.0 = identity)
  std::vector<double> means_, stds_;   // per original feature
  std::vector<std::size_t> keep_;      // surviving feature indices
  std::size_t rows_removed_ = 0;
};

}  // namespace adsala::preprocess
