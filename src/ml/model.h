// Common interface for every regression model in the candidate zoo.
//
// The paper's model-selection loop (SS IV-D) needs three things from a model:
// fit on the preprocessed training set, predict fast at GEMM runtime, and
// serialise to the installation-produced model file. Hyper-parameters are a
// flat string->double map so GridSearchCV can sweep any model uniformly.
//
// The model file has one frame for every model: save() writes the registry
// name under "model" and get_params() under "params", then the model's own
// save_state() adds its fitted state beside them. load() reads the same
// frame back and hands the blob to load_state(). A model therefore writes
// and reads only its state; clone() is make_model(name(), get_params()).
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

  /// Columns a fitted model reads, or 0 when unfitted: the highest split
  /// feature + 1 for the tree models, the coefficient count for the linear
  /// ones, the training row width for kNN. Rows narrower than this are
  /// refused.
  virtual std::size_t input_width() const = 0;

  virtual std::string name() const = 0;

  virtual Params get_params() const = 0;
  /// Unknown keys are ignored so one grid can drive several models.
  virtual void set_params(const Params& params) = 0;

  /// Serialises the fitted model: {"model": name(), "params": get_params()}
  /// plus the keys save_state() adds.
  Json save() const;
  /// Restores a save() blob in place. Throws (std::invalid_argument,
  /// std::out_of_range or std::bad_variant_access) when "model" is not
  /// name(), "params" is missing or not numeric, or load_state() rejects
  /// the state; the serving loader reports any of them as a validation
  /// error.
  void load(const Json& blob);

  /// Fresh unfitted copy carrying the same hyper-parameters.
  std::unique_ptr<Regressor> clone() const;

 protected:
  /// Adds the fitted state to a blob that already holds "model" and
  /// "params"; load_state() reads it back after set_params() has run, and
  /// throws on a state it cannot serve.
  virtual void save_state(Json& out) const = 0;
  virtual void load_state(const Json& blob) = 0;

  static void check_fit_input(const Dataset& data);
  static double param_or(const Params& p, const std::string& key,
                         double fallback);
};

}  // namespace adsala::ml
