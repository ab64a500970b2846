// Installation-time model training and speedup-based selection
// (paper Fig. 2 "Model training part" + SS IV-D selection strategy).
//
// For every candidate model: tune hyper-parameters with stratified k-fold
// grid search on the (preprocessed) training rows, evaluate on held-out test
// shapes, and estimate the speedup
//     s = t_original / (t_ADSALA + t_eval)
// where t_original is the measured runtime at max threads, t_ADSALA the
// measured runtime at the model's argmin thread count, and t_eval the
// measured wall time of one full thread-grid model evaluation. The model
// with the best estimated mean speedup is selected — this is what produces
// the paper's Tables III and IV row-by-row.
#pragma once

#include <memory>
#include <optional>

#include "core/gather.h"
#include "ml/grid_scorer.h"
#include "ml/registry.h"
#include "preprocess/pipeline.h"

namespace adsala::core {

/// One row of Table III/IV.
struct ModelReport {
  std::string model_name;
  ml::Params best_params;
  double cv_rmse = 0.0;            ///< tuning objective (transformed label)
  double test_rmse_norm = 0.0;     ///< normalised RMSE on test rows
  double ideal_mean_speedup = 0.0;
  double ideal_agg_speedup = 0.0;
  double eval_time_us = 0.0;       ///< one full thread-grid argmin evaluation
  double est_mean_speedup = 0.0;
  double est_agg_speedup = 0.0;
};

struct TrainOptions {
  std::vector<std::string> candidates;  ///< empty -> the paper's 8 models
  preprocess::PipelineConfig pipeline;
  double test_fraction = 0.30;  ///< paper SS VI-A
  std::size_t cv_folds = 5;
  std::uint64_t seed = 2023;
  bool tune = true;  ///< false: skip grid search, use default params
};

struct TrainOutput {
  std::vector<ModelReport> reports;       ///< one per candidate, input order
  std::string selected;                   ///< name of the winner
  std::unique_ptr<ml::Regressor> model;   ///< fitted winner
  preprocess::Pipeline pipeline;          ///< fitted preprocessing
  std::vector<int> thread_grid;
  int max_threads = 0;
  std::string platform;

  const ModelReport& selected_report() const;
};

/// The paper's candidate zoo for Tables III/IV (8 models, kNN excluded from
/// the tables but available via TrainOptions::candidates).
std::vector<std::string> paper_candidates();

TrainOutput train_and_select(const GatherData& gathered,
                             const TrainOptions& options);

/// How cold selections score a thread grid (docs/PIPELINE.md, "Serving
/// evaluator"). With `masks` set, the model's leaf-mask tables answer
/// (ml/grid_scorer.h); otherwise one predict_grid call over the grid's rows
/// does. Both give bit-identical predictions. make_grid_evaluator builds
/// one for a model, its pipeline and a thread grid, and it serves only that
/// triple: a ServingSnapshot builds its own once and shares it with the
/// generations installed from it.
struct GridEvaluator {
  std::shared_ptr<const ml::GridScorer> masks;  ///< null: the row path
  std::string rows_reason;  ///< why the row path answers, when it does
  double build_ms = 0.0;    ///< what make_grid_evaluator took
  std::vector<int> thread_grid;  ///< the grid `masks` was built for
  /// Kept-column positions scored per grid point: the thread columns
  /// other than n_threads, whose values are constants of the grid.
  std::vector<std::size_t> point_pos;
};

GridEvaluator make_grid_evaluator(const ml::Regressor& model,
                                  const preprocess::Pipeline& pipeline,
                                  std::span<const int> thread_grid);

/// Predicts the model's (transformed) runtime at every point of
/// `thread_grid` for one shape into out[0, thread_grid.size()): the scores
/// predict_best_grid_index takes the argmin of. `evaluator`, when given,
/// must come from make_grid_evaluator for this model and pipeline; it
/// answers only for the grid it was built for, and the row path answers
/// otherwise. The query row is built as predict_best_grid_index describes.
void score_thread_grid(const ml::Regressor& model,
                       const preprocess::Pipeline& pipeline,
                       const simarch::GemmShape& shape,
                       std::span<const int> thread_grid, blas::OpKind op,
                       blas::kernels::Variant variant,
                       const GridEvaluator* evaluator, std::span<double> out);

/// Predicts the best thread count for one shape with a fitted model +
/// pipeline over a thread grid (the runtime argmin loop, shared with
/// AdsalaGemm). Returns the grid index of the argmin.
///
/// The query row is matched to the pipeline's input columns by name
/// (preprocess::make_query_row): an op or kernel variant the artefact has
/// no one-hot column for is queried as GEMM or as the nearest lower tier it
/// has, and kAuto resolves to the active dispatch. Every kept column must
/// name a query feature; otherwise this throws std::out_of_range. Ties go
/// to the lowest grid index. `evaluator` is as for score_thread_grid; a
/// snapshot passes its own.
std::size_t predict_best_grid_index(
    const ml::Regressor& model, const preprocess::Pipeline& pipeline,
    const simarch::GemmShape& shape, std::span<const int> thread_grid,
    blas::OpKind op = blas::OpKind::kGemm,
    blas::kernels::Variant variant = blas::kernels::Variant::kAuto,
    const GridEvaluator* evaluator = nullptr);

}  // namespace adsala::core
