// Figure 1: histogram of the optimal thread count for SGEMM with aggregate
// memory <= 100 MB on Gadi (2x Cascade Lake, 48 physical cores / 96 threads,
// MKL). Paper finding: the distribution is broad and the bulk of the mass
// sits far below the maximum thread count.
#include "bench_util.h"
#include "common/stats.h"

using namespace adsala;

int main() {
  bench::print_header(
      "Fig. 1 | optimal thread count histogram, Gadi, SGEMM <= 100 MB");

  auto executor = bench::make_executor("gadi");
  sampling::DomainConfig domain = bench::train_domain();
  domain.memory_cap_bytes = 100ull * 1024 * 1024;
  domain.seed = 555;
  sampling::GemmDomainSampler sampler(domain);
  const auto shapes = sampler.sample(bench::train_samples());

  std::vector<double> optima;
  optima.reserve(shapes.size());
  const auto grid = core::default_thread_grid(executor.max_threads());
  for (const auto& shape : shapes) {
    double best_t = 0.0;
    int best_p = 1;
    for (int p : grid) {
      const double t = executor.measure_op(blas::OpKind::kGemm, shape, p);
      if (best_t == 0.0 || t < best_t) {
        best_t = t;
        best_p = p;
      }
    }
    optima.push_back(best_p);
  }

  const auto counts = histogram(optima, 0, 96, 16);
  bench::print_histogram(counts, 0, 96, "threads");

  const double med = percentile(optima, 50);
  std::printf("\nsamples=%zu  median optimal=%.0f  mean optimal=%.1f  "
              "max threads=96\n",
              optima.size(), med, mean(optima));
  std::size_t below_half = 0;
  for (double p : optima) below_half += (p < 48.0);
  std::printf("fraction with optimum below half the maximum: %.0f%%\n",
              100.0 * static_cast<double>(below_half) /
                  static_cast<double>(optima.size()));
  std::printf("[paper] bulk of optima well below 48; long tail to 96\n");
  return 0;
}
