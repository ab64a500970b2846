// Figure 10: heatmap of the ADSALA speedup with respect to the matrix
// dimensions on Setonix (10a) and Gadi (10b), over the independent test
// set. Cells on the sqrt-scale (m, n) / (m, k) / (k, n) projections show
// the mean speedup. Paper findings: shapes with large n accelerate most;
// very little of the domain decelerates.
#include <cmath>

#include "bench_util.h"

using namespace adsala;

namespace {

constexpr int kBuckets = 5;

int bucket_of(long dim, long dim_max) {
  const double r = std::sqrt(static_cast<double>(dim)) /
                   std::sqrt(static_cast<double>(dim_max));
  return std::min(static_cast<int>(r * kBuckets), kBuckets - 1);
}

void run_platform(const std::string& platform) {
  auto runtime = bench::trained_runtime(platform);
  auto executor = bench::make_executor(platform);
  const auto shapes = bench::independent_test_shapes(bench::test_samples());
  const long dim_max = bench::train_domain().dim_max;
  const int reference_threads = bench::baseline_threads(executor);

  std::vector<double> speedup(shapes.size());
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const int p = runtime.select_threads(shapes[i].m, shapes[i].k,
                                         shapes[i].n);
    const auto gemm = blas::OpKind::kGemm;
    speedup[i] = executor.measure_op(gemm, shapes[i], reference_threads) /
                 executor.measure_op(gemm, shapes[i], p);
  }

  const char* proj_names[3] = {"m x k", "m x n", "k x n"};
  for (int proj = 0; proj < 3; ++proj) {
    struct Cell {
      double sum = 0;
      int n = 0;
    };
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
      Cell& cell =
          cells[bucket_of(a, dim_max) * kBuckets + bucket_of(b, dim_max)];
      cell.sum += speedup[i];
      ++cell.n;
    }
    std::printf("\n%s | %s | mean speedup per sqrt-scale cell\n",
                platform.c_str(), proj_names[proj]);
    for (int r = kBuckets - 1; r >= 0; --r) {
      std::printf("  row%-2d |", r);
      for (int c = 0; c < kBuckets; ++c) {
        const Cell& cell = cells[r * kBuckets + c];
        if (cell.n == 0) {
          std::printf("     . ");
        } else {
          std::printf(" %5.2f ", cell.sum / cell.n);
        }
      }
      std::printf("\n");
    }
  }
  int decelerated = 0;
  for (double s : speedup) decelerated += (s < 1.0);
  std::printf("\n%s: decelerated fraction %.0f%%\n", platform.c_str(),
              100.0 * decelerated / static_cast<double>(speedup.size()));
}

}  // namespace

int main() {
  bench::print_header("Fig. 10 | speedup heatmaps vs matrix dimensions");
  run_platform("setonix");
  run_platform("gadi");
  std::printf("\n[paper] most cells accelerate (red); isolated cells "
              "decelerate slightly\n");
  return 0;
}
