// Native autotune: the complete ADSALA workflow against the *real* host CPU
// using the library's own from-scratch blocked GEMM — no simulation. This is
// what "installing ADSALA on your machine" means for a downstream user.
//
//   $ ./native_autotune [n_samples]    (default 50; more = better model)
//
// Budget note: each sample is timed at every probed thread count, so the
// campaign takes roughly n_samples x |grid| x iterations GEMM calls.
#include <cstdio>
#include <filesystem>
#include <string>

#include "common/stats.h"
#include "common/timer.h"
#include "core/adsala.h"
#include "core/install.h"

using namespace adsala;

int main(int argc, char** argv) {
  const std::size_t n_samples = argc > 1 ? std::stoul(argv[1]) : 50;

  core::NativeExecutor executor;
  std::printf("host: %d hardware threads available\n",
              executor.max_threads());

  core::InstallOptions options;
  options.gather.n_samples = n_samples;
  options.gather.iterations = 3;
  options.gather.domain.memory_cap_bytes = 24ull * 1024 * 1024;
  options.gather.domain.dim_max = 1500;
  options.train.candidates = {"linear_regression", "decision_tree",
                              "xgboost", "lightgbm"};
  options.train.tune = false;
  options.output_dir = "adsala_native_artifacts";
  std::filesystem::create_directories(options.output_dir);

  std::printf("gathering timings for %zu shapes (this runs real GEMMs)...\n",
              n_samples);
  const auto report = core::install(executor, options);
  std::printf("gather: %.1fs, train: %.1fs\n", report.gather_seconds,
              report.train_seconds);

  std::printf("\nmodel comparison on this machine:\n");
  std::printf("%-18s %10s %10s %10s\n", "model", "norm RMSE", "eval (us)",
              "est mean");
  for (const auto& r : report.trained.reports) {
    std::printf("%-18s %10.2f %10.1f %10.2f\n", r.model_name.c_str(),
                r.test_rmse_norm, r.eval_time_us, r.est_mean_speedup);
  }
  std::printf("selected: %s\n", report.trained.selected.c_str());

  // Validate on fresh shapes with real GEMM runs.
  core::AdsalaGemm adsala(report.model_path, report.config_path);
  sampling::DomainConfig fresh = options.gather.domain;
  fresh.seed = 1337;
  sampling::GemmDomainSampler sampler(fresh);
  std::vector<double> speedups;
  for (const auto& shape : sampler.sample(15)) {
    const int p = adsala.select_threads(shape.m, shape.k, shape.n);
    const double t_ml = executor.measure_op(blas::OpKind::kGemm, shape, p, 3);
    const double t_max = executor.measure_op(blas::OpKind::kGemm, shape,
                                             executor.max_threads(), 3);
    speedups.push_back(t_max / t_ml);
  }
  std::printf("\nfresh-shape speedup vs always-max-threads: mean %.2fx, "
              "median %.2fx\n",
              mean(speedups), percentile(speedups, 50));
  std::printf("artefacts saved in %s/ — load them with "
              "core::AdsalaGemm(model, config)\n",
              options.output_dir.c_str());
  return 0;
}
