// Figure 8: histogram of the optimal thread count restricted to GEMMs with
// at least one of m, k, n smaller than 1,000 (Setonix, <= 500 MB). Paper
// finding: for these shapes the optimum is typically below half of the 256
// available threads.
#include <algorithm>

#include "bench_util.h"
#include "common/stats.h"

using namespace adsala;

int main() {
  bench::print_header(
      "Fig. 8 | optimal threads, min(m,k,n) < 1000, Setonix, <= 500 MB");

  auto executor = bench::make_executor("setonix");
  sampling::DomainConfig domain = bench::train_domain();
  domain.seed = 888;
  sampling::GemmDomainSampler sampler(domain);

  std::vector<double> optima;
  const auto grid = core::default_thread_grid(executor.max_threads());
  std::size_t examined = 0;
  while (optima.size() < bench::train_samples() && examined < 20000) {
    const auto shapes = sampler.sample(64);
    for (const auto& shape : shapes) {
      ++examined;
      if (std::min({shape.m, shape.k, shape.n}) >= 1000) continue;
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
      if (optima.size() >= bench::train_samples()) break;
    }
  }

  const auto counts = histogram(optima, 0, 256, 16);
  bench::print_histogram(counts, 0, 256, "threads");
  std::size_t below_half = 0;
  for (double p : optima) below_half += (p < 128.0);
  std::printf("\nsamples=%zu  median=%.0f  below half max: %.0f%%\n",
              optima.size(), percentile(optima, 50),
              100.0 * static_cast<double>(below_half) /
                  static_cast<double>(optima.size()));
  std::printf("[paper] optima for small-dimension GEMMs tend below 128 "
              "threads\n");
  return 0;
}
