// Figure 9: heatmap of the optimal thread count over (m, k), (m, n), (k, n)
// projections for Setonix (9a) and Gadi (9b). We bucket each pair of
// dimensions on the paper's square-root axis scale and print the mean
// optimal thread count per cell. Paper findings: larger/squarer shapes pull
// the optimum toward (half of) the maximum; shapes with any small dimension
// keep it low; Gadi has more mass near its maximum than Setonix.
#include <cmath>

#include "bench_util.h"

using namespace adsala;

namespace {

constexpr int kBuckets = 6;

int bucket_of(long dim, long dim_max) {
  const double r = std::sqrt(static_cast<double>(dim)) /
                   std::sqrt(static_cast<double>(dim_max));
  const int b = static_cast<int>(r * kBuckets);
  return std::min(b, kBuckets - 1);
}

struct Cell {
  double sum = 0.0;
  int count = 0;
};

void run_platform(const std::string& platform) {
  auto executor = bench::make_executor(platform);
  sampling::DomainConfig domain = bench::train_domain();
  domain.seed = 999;
  sampling::GemmDomainSampler sampler(domain);
  const auto shapes = sampler.sample(bench::train_samples());
  const auto grid = core::default_thread_grid(executor.max_threads());

  std::vector<int> optima(shapes.size());
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    double best_t = 0.0;
    for (int p : grid) {
      const double t = executor.measure_op(blas::OpKind::kGemm, shapes[i], p);
      if (best_t == 0.0 || t < best_t) {
        best_t = t;
        optima[i] = p;
      }
    }
  }

  const char* proj_names[3] = {"m x k", "m x n", "k x n"};
  for (int proj = 0; proj < 3; ++proj) {
    std::vector<Cell> cells(kBuckets * kBuckets);
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      long a = 0, b = 0;
      if (proj == 0) {
        a = shapes[i].m;
        b = shapes[i].k;
      } else if (proj == 1) {
        a = shapes[i].m;
        b = shapes[i].n;
      } else {
        a = shapes[i].k;
        b = shapes[i].n;
      }
      Cell& cell = cells[bucket_of(a, domain.dim_max) * kBuckets +
                         bucket_of(b, domain.dim_max)];
      cell.sum += optima[i];
      ++cell.count;
    }
    std::printf("\n%s | %s | mean optimal threads per sqrt-scale cell "
                "(. = no sample)\n",
                platform.c_str(), proj_names[proj]);
    for (int r = kBuckets - 1; r >= 0; --r) {
      std::printf("  row%-2d |", r);
      for (int c = 0; c < kBuckets; ++c) {
        const Cell& cell = cells[r * kBuckets + c];
        if (cell.count == 0) {
          std::printf("    . ");
        } else {
          std::printf(" %4.0f ", cell.sum / cell.count);
        }
      }
      std::printf("\n");
    }
  }
}

}  // namespace

int main() {
  bench::print_header("Fig. 9 | optimal thread count heatmaps");
  run_platform("setonix");
  run_platform("gadi");
  std::printf("\n[paper] optimum grows toward the big-square corner; small "
              "dims keep it low; Gadi saturates closer to its max\n");
  return 0;
}
