// google-benchmark microbenchmarks of the runtime-critical model paths:
// predict_one for each model family and the full AdsalaGemm thread
// selection (the t_eval of the paper's speedup formula), plus the training
// cost of the four tree learners (what an install or retune pays).
#include <benchmark/benchmark.h>

#include <cmath>

#include "bench_util.h"
#include "common/rng.h"
#include "ml/registry.h"
#include "preprocess/features.h"

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
BENCHMARK(BM_SelectThreads)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SelectThreadsCached);

BENCHMARK_MAIN();
