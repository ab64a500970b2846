// Common interface for every regression model in the candidate zoo.
//
// The paper's model-selection loop (SS IV-D) needs three things from a model:
// fit on the preprocessed training set, predict fast at GEMM runtime, and
// serialise to the installation-produced model file. Hyper-parameters are a
// flat string->double map so GridSearchCV can sweep any model uniformly.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/json.h"
#include "ml/dataset.h"

namespace adsala::ml {

struct GridLayout;
class GridScorer;

using Params = std::map<std::string, double>;

class Regressor {
 public:
  virtual ~Regressor() = default;

  /// Trains on the dataset; replaces any previous fit. Throws
  /// std::invalid_argument on an empty dataset.
  virtual void fit(const Dataset& data) = 0;

  /// Predicts one row (feature order must match the training set).
  virtual double predict_one(std::span<const double> x) const = 0;

  /// Predicts n_rows rows stored back to back in `rows` (rows.size() /
  /// n_rows values each) into out[0, n_rows), each value bit-identical to
  /// predict_one on that row. The default loops over predict_one; the tree
  /// models walk all rows through their trees together (ml/flat_ensemble.h).
  virtual void predict_grid(std::span<const double> rows, std::size_t n_rows,
                            std::span<double> out) const;

  /// An exact scorer for grids laid out as `layout` (ml/grid_scorer.h):
  /// its outputs are bit-identical to predict_grid on the same rows. Null,
  /// with the reason in *why_not, when the model has none; only the
  /// boosted tree models (xgboost, lightgbm) build one.
  virtual std::shared_ptr<const GridScorer> grid_scorer(
      const GridLayout& layout, std::string* why_not) const;

  /// Batch prediction over a dataset, through predict_grid.
  std::vector<double> predict(const Dataset& data) const;

  /// Columns a fitted model reads: its highest feature index + 1, or 0 when
  /// it does not track one (the non-tree models). Rows narrower than this
  /// are refused.
  virtual std::size_t input_width() const { return 0; }

  virtual std::string name() const = 0;

  virtual Params get_params() const = 0;
  /// Unknown keys are ignored so one grid can drive several models.
  virtual void set_params(const Params& params) = 0;

  /// Serialises the *fitted* state (plus hyper-parameters).
  virtual Json save() const = 0;
  virtual void load(const Json& blob) = 0;

  /// Fresh unfitted copy carrying the same hyper-parameters.
  virtual std::unique_ptr<Regressor> clone() const = 0;

 protected:
  static void check_fit_input(const Dataset& data);
  static double param_or(const Params& p, const std::string& key,
                         double fallback);
};

}  // namespace adsala::ml
