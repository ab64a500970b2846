#include "core/trainer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/timer.h"
#include "ml/metrics.h"
#include "preprocess/features.h"

namespace adsala::core {

const ModelReport& TrainOutput::selected_report() const {
  for (const auto& r : reports) {
    if (r.model_name == selected) return r;
  }
  throw std::logic_error("TrainOutput: no report for selected model");
}

std::vector<std::string> paper_candidates() {
  return {"linear_regression", "elastic_net", "bayesian_ridge",
          "decision_tree",     "random_forest", "adaboost",
          "xgboost",           "lightgbm"};
}

GridEvaluator make_grid_evaluator(const ml::Regressor& model,
                                  const preprocess::Pipeline& pipeline,
                                  std::span<const int> thread_grid) {
  WallTimer timer;
  GridEvaluator out;
  out.thread_grid.assign(thread_grid.begin(), thread_grid.end());
  // Lay the grid out in model input columns (the kept positions): the
  // n_threads column takes constants of the grid, the other thread columns
  // vary with the shape, and the rest are shared by every grid point.
  ml::GridLayout layout;
  layout.n_points = thread_grid.size();
  const std::vector<std::size_t>& columns = pipeline.schema_columns();
  const std::vector<std::size_t>& keep = pipeline.kept_features();
  for (std::size_t pos = 0; pos < keep.size(); ++pos) {
    const std::size_t col = columns[keep[pos]];
    if (col == preprocess::kThreadsColumn) {
      layout.fixed_cols.push_back(pos);
    } else if (preprocess::is_thread_feature(col)) {
      layout.point_cols.push_back(pos);
    }
  }
  const std::size_t n_fixed = layout.fixed_cols.size();
  layout.fixed_values.resize(thread_grid.size() * n_fixed);
  for (std::size_t g = 0; g < thread_grid.size(); ++g) {
    for (std::size_t i = 0; i < n_fixed; ++i) {
      layout.fixed_values[g * n_fixed + i] = pipeline.transform_kept(
          layout.fixed_cols[i], static_cast<double>(thread_grid[g]));
    }
  }
  out.masks = model.grid_scorer(layout, &out.rows_reason);
  out.point_pos = std::move(layout.point_cols);
  out.build_ms = timer.seconds() * 1e3;
  return out;
}

void score_thread_grid(const ml::Regressor& model,
                       const preprocess::Pipeline& pipeline,
                       const simarch::GemmShape& shape,
                       std::span<const int> thread_grid, blas::OpKind op,
                       blas::kernels::Variant variant,
                       const GridEvaluator* evaluator,
                       std::span<double> out) {
  if (thread_grid.empty()) return;
  // The grid rows differ only in their thread columns: build and
  // transform the query row once, then redo just the kept thread columns
  // per grid point. The rows live in one buffer per thread, so after a
  // thread's first call a cold selection allocates nothing.
  const std::vector<std::size_t>& columns = pipeline.schema_columns();
  auto raw = preprocess::make_query_row(
      columns, static_cast<double>(shape.m), static_cast<double>(shape.k),
      static_cast<double>(shape.n), static_cast<double>(thread_grid[0]), op,
      variant);
  const std::vector<std::size_t>& keep = pipeline.kept_features();
  const std::size_t cols = keep.size();
  const std::size_t n_rows = thread_grid.size();
  thread_local std::vector<double> rows;

  if (evaluator != nullptr && evaluator->masks != nullptr &&
      std::equal(thread_grid.begin(), thread_grid.end(),
                 evaluator->thread_grid.begin(),
                 evaluator->thread_grid.end())) {
    // One shared row, then each grid point's values of the point columns;
    // the tables already hold n_threads at every grid point.
    const std::vector<std::size_t>& point_pos = evaluator->point_pos;
    const std::size_t n_point = point_pos.size();
    rows.resize(cols + n_rows * n_point);
    for (std::size_t pos = 0; pos < cols; ++pos) {
      const std::size_t col = columns[keep[pos]];
      if (!preprocess::is_thread_feature(col)) {
        // at(): a kept column outside the schema (kNoSchemaColumn) throws.
        rows[pos] = pipeline.transform_kept(pos, raw.at(col));
      }
    }
    double* point = rows.data() + cols;
    for (std::size_t t = 0; t < n_rows; ++t) {
      if (t > 0) {
        preprocess::set_thread_features(static_cast<double>(thread_grid[t]),
                                        raw);
      }
      for (std::size_t i = 0; i < n_point; ++i) {
        const std::size_t pos = point_pos[i];
        point[t * n_point + i] =
            pipeline.transform_kept(pos, raw[columns[keep[pos]]]);
      }
    }
    evaluator->masks->score({rows.data(), cols},
                            {point, n_rows * n_point}, out);
    return;
  }

  rows.resize(n_rows * cols);
  for (std::size_t pos = 0; pos < cols; ++pos) {
    // at(): a kept column outside the schema (kNoSchemaColumn) throws.
    rows[pos] = pipeline.transform_kept(pos, raw.at(columns[keep[pos]]));
  }
  for (std::size_t t = 1; t < n_rows; ++t) {
    preprocess::set_thread_features(static_cast<double>(thread_grid[t]), raw);
    double* row = rows.data() + t * cols;
    std::copy_n(rows.data(), cols, row);
    for (std::size_t pos = 0; pos < cols; ++pos) {
      const std::size_t col = columns[keep[pos]];
      if (preprocess::is_thread_feature(col)) {
        row[pos] = pipeline.transform_kept(pos, raw[col]);
      }
    }
  }
  model.predict_grid(rows, n_rows, out);
}

std::size_t predict_best_grid_index(const ml::Regressor& model,
                                    const preprocess::Pipeline& pipeline,
                                    const simarch::GemmShape& shape,
                                    std::span<const int> thread_grid,
                                    blas::OpKind op,
                                    blas::kernels::Variant variant,
                                    const GridEvaluator* evaluator) {
  if (thread_grid.empty()) return 0;
  thread_local std::vector<double> preds;
  preds.resize(thread_grid.size());
  score_thread_grid(model, pipeline, shape, thread_grid, op, variant,
                    evaluator, preds);
  std::size_t best = 0;
  for (std::size_t t = 1; t < preds.size(); ++t) {
    if (preds[t] < preds[best]) best = t;
  }
  return best;
}

namespace {

/// Transforms a GatherData's flattened rows through a *fitted* pipeline
/// (feature stages + label transform; no row removal — test data keeps every
/// row).
ml::Dataset transform_rows(const preprocess::Pipeline& pipeline,
                           const ml::Dataset& raw) {
  std::vector<std::string> names;
  for (std::size_t j : pipeline.kept_features()) {
    names.push_back(raw.feature_names()[j]);
  }
  ml::Dataset out(std::move(names));
  for (std::size_t i = 0; i < raw.size(); ++i) {
    out.add_row(pipeline.transform_row(raw.row(i)),
                pipeline.transform_label(raw.label(i)));
  }
  return out;
}

struct SpeedupStats {
  double mean = 0.0;
  double aggregate = 0.0;
};

/// Speedups over the test shapes given a fitted model; eval_overhead_s is
/// added to the ADSALA runtime (0 for the "ideal" columns).
SpeedupStats speedups(const ml::Regressor& model,
                      const preprocess::Pipeline& pipeline,
                      const GridEvaluator& evaluator, const GatherData& test,
                      double eval_overhead_s) {
  SpeedupStats out;
  double sum_ratio = 0.0, sum_orig = 0.0, sum_adsala = 0.0;
  for (const auto& rec : test.records) {
    const std::size_t best =
        predict_best_grid_index(model, pipeline, rec.shape, rec.threads,
                                rec.op, rec.variant, &evaluator);
    const double t_adsala = rec.runtime[best] + eval_overhead_s;
    const double t_orig = rec.max_thread_runtime();
    sum_ratio += t_orig / t_adsala;
    sum_orig += t_orig;
    sum_adsala += t_adsala;
  }
  const auto n = static_cast<double>(test.records.size());
  out.mean = n > 0 ? sum_ratio / n : 0.0;
  out.aggregate = sum_adsala > 0 ? sum_orig / sum_adsala : 0.0;
  return out;
}

/// Mean wall time of one full thread-grid argmin evaluation, through the
/// evaluator a snapshot of this model would serve cold selections with.
double measure_eval_time_s(const ml::Regressor& model,
                           const preprocess::Pipeline& pipeline,
                           const GridEvaluator& evaluator,
                           const GatherData& test, int repeats = 50) {
  if (test.records.empty()) return 0.0;
  // Rotate over a few shapes so branchy models do not get a single hot path.
  const std::size_t n_probe = std::min<std::size_t>(8, test.records.size());
  WallTimer timer;
  for (int r = 0; r < repeats; ++r) {
    const auto& rec = test.records[static_cast<std::size_t>(r) % n_probe];
    // The argmin result is intentionally unused; volatile blocks DCE.
    volatile std::size_t sink =
        predict_best_grid_index(model, pipeline, rec.shape, rec.threads,
                                rec.op, rec.variant, &evaluator);
    (void)sink;
  }
  return timer.seconds() / repeats;
}

}  // namespace

TrainOutput train_and_select(const GatherData& gathered,
                             const TrainOptions& options) {
  if (gathered.records.size() < 10) {
    throw std::invalid_argument(
        "train_and_select: too few gathered shapes (" +
        std::to_string(gathered.records.size()) + ", need >= 10)");
  }
  // Reloaded timing files (install --reuse) can carry a damaged grid; the
  // same invariants try_load enforces on artefacts hold for training input,
  // and checking here fails the install instead of baking the damage into
  // an artefact that every later load rejects.
  if (gathered.thread_grid.empty()) {
    throw std::invalid_argument("train_and_select: empty thread grid");
  }
  for (std::size_t i = 0; i < gathered.thread_grid.size(); ++i) {
    if (gathered.thread_grid[i] < 1 ||
        (i > 0 && gathered.thread_grid[i] <= gathered.thread_grid[i - 1])) {
      throw std::invalid_argument(
          "train_and_select: thread grid must be positive and strictly "
          "increasing");
    }
  }
  TrainOutput out;
  out.thread_grid = gathered.thread_grid;
  out.max_threads = gathered.max_threads;
  out.platform = gathered.platform;

  GatherData train, test;
  gathered.split(options.test_fraction, options.seed, &train, &test);

  // Fit the preprocessing on the training rows only. The op-aware gather
  // emits the one-hot op / kernel columns (preprocess/features.h); mark them
  // categorical unless the caller configured its own set.
  preprocess::PipelineConfig pipeline_cfg = options.pipeline;
  const ml::Dataset train_raw = train.to_dataset();
  if (pipeline_cfg.categorical.empty() &&
      train_raw.n_features() == preprocess::kNumOpAwareFeatures) {
    pipeline_cfg.categorical = preprocess::categorical_indices();
  }
  out.pipeline = preprocess::Pipeline(pipeline_cfg);
  const ml::Dataset train_set = out.pipeline.fit_transform(train_raw);
  const ml::Dataset test_set = transform_rows(out.pipeline, test.to_dataset());

  const auto candidates =
      options.candidates.empty() ? paper_candidates() : options.candidates;

  double best_score = -1.0;
  std::unique_ptr<ml::Regressor> best_model;

  for (const auto& name : candidates) {
    ModelReport report;
    report.model_name = name;

    std::unique_ptr<ml::Regressor> fitted;
    if (options.tune) {
      auto proto = ml::make_model(name);
      auto gs = ml::grid_search_cv(*proto, train_set, ml::default_grid(name),
                                   options.cv_folds, options.seed);
      report.best_params = gs.best_params;
      report.cv_rmse = gs.best_rmse;
      fitted = std::move(gs.best_model);
    } else {
      fitted = ml::make_model(name);
      fitted->fit(train_set);
      report.best_params = fitted->get_params();
    }

    const auto pred = fitted->predict(test_set);
    report.test_rmse_norm = ml::normalized_rmse(test_set.labels(), pred);

    const GridEvaluator evaluator =
        make_grid_evaluator(*fitted, out.pipeline, out.thread_grid);
    const SpeedupStats ideal =
        speedups(*fitted, out.pipeline, evaluator, test, 0.0);
    report.ideal_mean_speedup = ideal.mean;
    report.ideal_agg_speedup = ideal.aggregate;

    const double eval_s =
        measure_eval_time_s(*fitted, out.pipeline, evaluator, test);
    report.eval_time_us = eval_s * 1e6;

    const SpeedupStats est =
        speedups(*fitted, out.pipeline, evaluator, test, eval_s);
    report.est_mean_speedup = est.mean;
    report.est_agg_speedup = est.aggregate;

    // Selection criterion: estimated *aggregate* speedup (total original
    // wall time / total ADSALA wall time), tie-broken by the mean. The paper
    // averages per-GEMM speedups; with our simulator's heavier pathological
    // tail the mean is dominated by a handful of extreme shapes, and the
    // aggregate is the robust version of the same criterion.
    const double score = report.est_agg_speedup + 1e-6 * report.est_mean_speedup;
    if (score > best_score) {
      best_score = score;
      out.selected = name;
      best_model = std::move(fitted);
    }
    out.reports.push_back(std::move(report));
  }

  out.model = std::move(best_model);
  return out;
}

}  // namespace adsala::core
