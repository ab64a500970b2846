// The benchmark's only calls into preprocess and ml: a cold selection
// replayed from outside, one layer at a time, so each layer's share of it
// can be timed. It mirrors core::predict_best_grid_index step for step
// (query row -> pipeline transform -> model prediction, per grid point,
// first minimum wins); a change to the query schema lands here and nowhere
// else in the benchmark.
#include "blas/kernels/dispatch.h"
#include "core/op_registry.h"
#include "e2e.h"
#include "preprocess/features.h"

namespace e2e {

ReplaySplit replay_selection(const AdsalaGemm& runtime, const Key& key) {
  namespace kernels = adsala::blas::kernels;
  const auto snap = runtime.snapshot();
  const auto shape = adsala::core::op_traits(key.op).to_shape(
      key.x, key.y, key.z, key.elem);
  const std::vector<int>& grid = snap->thread_grid;
  const std::size_t width = snap->pipeline.n_input_features();
  const kernels::Variant variant = width > adsala::preprocess::kNumFeatures
                                       ? kernels::active_variant()
                                       : kernels::Variant::kAuto;

  std::vector<std::vector<double>> rows(grid.size());
  std::vector<std::vector<double>> inputs(grid.size());
  std::vector<double> predictions(grid.size());
  const std::int64_t t0 = now_ns();
  for (std::size_t t = 0; t < grid.size(); ++t) {
    rows[t] = adsala::preprocess::make_query_features(
        static_cast<double>(shape.m), static_cast<double>(shape.k),
        static_cast<double>(shape.n), static_cast<double>(grid[t]), key.op,
        variant, width);
  }
  const std::int64_t t1 = now_ns();
  for (std::size_t t = 0; t < grid.size(); ++t) {
    inputs[t] = snap->pipeline.transform_row(rows[t]);
  }
  const std::int64_t t2 = now_ns();
  for (std::size_t t = 0; t < grid.size(); ++t) {
    predictions[t] = snap->model->predict_one(inputs[t]);
  }
  const std::int64_t t3 = now_ns();

  std::size_t best = 0;
  for (std::size_t t = 1; t < grid.size(); ++t) {
    if (predictions[t] < predictions[best]) best = t;
  }
  return {t0, t1, t2, t3, grid[best]};
}

}  // namespace e2e
