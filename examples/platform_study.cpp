// Platform study: train ADSALA on both simulated paper platforms (Setonix
// 2x64c Zen 3 and Gadi 2x24c Cascade Lake) and compare — optimal-thread
// histograms, selected models, and end-to-end speedups side by side. This is
// the "adapting to different HPC platforms" claim of the paper in one run.
#include <cstdio>
#include <string>
#include <vector>

#include "common/stats.h"
#include "core/adsala.h"
#include "core/install.h"

using namespace adsala;

namespace {

struct PlatformResult {
  std::string name;
  int max_threads = 0;
  std::string model;
  std::vector<double> optima;
  std::vector<double> speedups;
};

PlatformResult study(const simarch::CpuTopology& topo,
                     std::size_t n_samples) {
  PlatformResult result;
  result.name = topo.name;
  result.max_threads = topo.max_threads();

  core::SimulatedExecutor executor(simarch::MachineModel(topo, 42));
  core::GatherConfig gather;
  gather.n_samples = n_samples;
  gather.domain.memory_cap_bytes = 500ull * 1024 * 1024;
  gather.domain.dim_max = 74000;
  auto data = core::gather_timings(executor, gather);
  for (const auto& rec : data.records) {
    result.optima.push_back(rec.optimal_threads());
  }

  core::TrainOptions train;
  train.candidates = {"decision_tree", "xgboost", "lightgbm"};
  train.tune = false;
  core::AdsalaGemm adsala(core::train_and_select(data, train));
  result.model = adsala.model_name();

  sampling::DomainConfig fresh = gather.domain;
  fresh.seed = 4242;
  sampling::GemmDomainSampler sampler(fresh);
  for (const auto& shape : sampler.sample(80)) {
    const int p = adsala.select_threads(shape.m, shape.k, shape.n);
    const auto gemm = blas::OpKind::kGemm;
    result.speedups.push_back(
        executor.measure_op(gemm, shape, topo.max_threads()) /
        executor.measure_op(gemm, shape, p));
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n_samples = argc > 1 ? std::stoul(argv[1]) : 250;

  std::printf("studying both paper platforms (%zu training shapes each)...\n",
              n_samples);
  const PlatformResult setonix = study(simarch::setonix_topology(), n_samples);
  const PlatformResult gadi = study(simarch::gadi_topology(), n_samples);

  for (const auto& r : {setonix, gadi}) {
    std::printf("\n=== %s (max %d threads) ===\n", r.name.c_str(),
                r.max_threads);
    std::printf("selected model: %s\n", r.model.c_str());
    std::printf("optimal-thread quartiles: p25=%.0f p50=%.0f p75=%.0f "
                "(max %d)\n",
                percentile(r.optima, 25), percentile(r.optima, 50),
                percentile(r.optima, 75), r.max_threads);
    const auto counts =
        histogram(r.optima, 0, static_cast<double>(r.max_threads), 8);
    for (std::size_t b = 0; b < counts.size(); ++b) {
      const int bar = static_cast<int>(counts[b]);
      std::printf("  [%3.0f-%3.0f) %.*s\n",
                  b * r.max_threads / 8.0, (b + 1) * r.max_threads / 8.0,
                  std::min(bar, 60), "############################"
                                     "################################");
    }
    std::printf("fresh-shape speedup vs max threads: median %.2fx, p75 "
                "%.2fx\n",
                percentile(r.speedups, 50), percentile(r.speedups, 75));
  }
  std::printf("\nBoth platforms learn their own thread-count surface from "
              "the same codebase — the 'architecture aware' part of "
              "ADSALA.\n");
  return 0;
}
