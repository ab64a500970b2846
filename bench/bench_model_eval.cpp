// google-benchmark microbenchmarks of the runtime-critical model paths:
// predict_one for each model family, the thread-grid scoring of a memo miss
// through either evaluator (leaf-mask tables or the row walk), and the full
// AdsalaGemm thread selection (the t_eval of the paper's speedup formula),
// plus the training cost of the four tree learners (what an install or
// retune pays).
#include <benchmark/benchmark.h>

#include <cmath>

#include "bench_util.h"
#include "common/rng.h"
#include "core/trainer.h"
#include "ml/registry.h"
#include "preprocess/features.h"
#include "preprocess/pipeline.h"

namespace {

using namespace adsala;

/// Fits a small model of the given type on a synthetic runtime-like surface.
std::unique_ptr<ml::Regressor> fitted_model(const std::string& name) {
  ml::Dataset data(preprocess::feature_names());
  Rng rng(1);
  for (int i = 0; i < 600; ++i) {
    const double m = rng.uniform(1, 4000), k = rng.uniform(1, 4000);
    const double n = rng.uniform(1, 4000), t = rng.range(1, 96);
    const auto f = preprocess::make_features(m, k, n, t);
    data.add_row(f, std::log(m * k * n / t + 40.0 * t));
  }
  auto model = ml::make_model(name, {{"n_estimators", 150}});
  model->fit(data);
  return model;
}

/// Shaped like gather output: 560 shapes, each timed at 1-4 threads, so
/// every shape column holds runs of tied values (2240 rows, as many as the
/// committed 4-CPU e2e timings).
const ml::Dataset& gather_like() {
  static const ml::Dataset data = [] {
    ml::Dataset out(preprocess::feature_names());
    Rng rng(3);
    for (int s = 0; s < 560; ++s) {
      const double m = static_cast<double>(rng.range(1, 125) * 32);
      const double k = static_cast<double>(rng.range(1, 125) * 32);
      const double n = static_cast<double>(rng.range(1, 125) * 32);
      for (const double t : {1.0, 2.0, 3.0, 4.0}) {
        out.add_row(preprocess::make_features(m, k, n, t),
                    std::log(m * k * n / t + 4.0e5 * t) +
                        rng.normal(0.0, 0.05));
      }
    }
    return out;
  }();
  return data;
}

void BM_Fit(benchmark::State& state, const std::string& name) {
  const ml::Dataset& data = gather_like();
  for (auto _ : state) {
    auto model = ml::make_model(name, {});
    model->fit(data);
    benchmark::DoNotOptimize(model);
  }
}

void BM_PredictOne(benchmark::State& state, const std::string& name) {
  const auto model = fitted_model(name);
  const auto x = preprocess::make_features(300, 2000, 150, 48);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->predict_one(x));
  }
}

/// xgboost (default params, as the e2e benchmark trains it) behind a
/// fitted default pipeline over the grid {1, 2, 3, 4}. The shapes are
/// log-uniform over 1-8000, so the correlation filter drops every x/t
/// column and n_threads is the only thread column left, as in the e2e
/// model.
struct GridModel {
  preprocess::Pipeline pipeline;
  std::unique_ptr<ml::Regressor> model;
  std::vector<int> grid = {1, 2, 3, 4};
  core::GridEvaluator evaluator;
};

const GridModel& grid_model() {
  static const GridModel built = [] {
    ml::Dataset raw(preprocess::feature_names());
    Rng rng(5);
    auto dim = [&] { return std::round(std::exp(rng.uniform(0.0, 9.0))); };
    for (int s = 0; s < 560; ++s) {
      const double m = dim(), k = dim(), n = dim();
      for (const double t : {1.0, 2.0, 3.0, 4.0}) {
        raw.add_row(preprocess::make_features(m, k, n, t),
                    std::log(m * k * n / t + 4.0e5 * t) +
                        rng.normal(0.0, 0.05));
      }
    }
    GridModel out;
    const ml::Dataset train = out.pipeline.fit_transform(raw);
    out.model = ml::make_model("xgboost", {});
    out.model->fit(train);
    out.evaluator =
        core::make_grid_evaluator(*out.model, out.pipeline, out.grid);
    return out;
  }();
  return built;
}

/// One memo miss's grid scores for a fresh small shape (dims <= 256, as on
/// small_stream); both rows draw the same shapes.
void BM_GridScore(benchmark::State& state, bool masks) {
  const GridModel& gm = grid_model();
  if (!gm.evaluator.point_pos.empty()) {
    state.SkipWithError("the pipeline kept an x/t column");
    return;
  }
  if (gm.evaluator.masks == nullptr) {
    state.SkipWithError(gm.evaluator.rows_reason.c_str());
    return;
  }
  Rng rng(4);
  std::vector<double> out(gm.grid.size());
  for (auto _ : state) {
    const simarch::GemmShape shape{rng.range(1, 256), rng.range(1, 256),
                                   rng.range(1, 256), 4};
    core::score_thread_grid(*gm.model, gm.pipeline, shape, gm.grid,
                            blas::OpKind::kGemm,
                            blas::kernels::Variant::kAuto,
                            masks ? &gm.evaluator : nullptr, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}

void BM_SelectThreads(benchmark::State& state) {
  auto runtime = bench::trained_runtime("gadi");
  Rng rng(2);
  for (auto _ : state) {
    // Fresh shape each iteration to defeat the memoised-last-query path.
    const long m = rng.range(1, 4000);
    benchmark::DoNotOptimize(runtime.select_threads(m, 512, 512));
  }
}

void BM_SelectThreadsCached(benchmark::State& state) {
  auto runtime = bench::trained_runtime("gadi");
  for (auto _ : state) {
    benchmark::DoNotOptimize(runtime.select_threads(640, 512, 512));
  }
}

}  // namespace

BENCHMARK_CAPTURE(BM_PredictOne, linear, std::string("linear_regression"));
BENCHMARK_CAPTURE(BM_PredictOne, tree, std::string("decision_tree"));
BENCHMARK_CAPTURE(BM_PredictOne, forest, std::string("random_forest"))
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_PredictOne, xgboost, std::string("xgboost"))
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_PredictOne, lightgbm, std::string("lightgbm"))
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_PredictOne, knn, std::string("knn"))
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_Fit, tree, std::string("decision_tree"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Fit, forest, std::string("random_forest"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Fit, adaboost, std::string("adaboost"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Fit, xgboost, std::string("xgboost"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_GridScore, rows, false)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_GridScore, masks, true)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SelectThreads)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SelectThreadsCached);

BENCHMARK_MAIN();
