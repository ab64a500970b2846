// Shared driver for Figures 11 (Setonix/BLIS) and 12 (Gadi/MKL): GFLOPS of
// the baseline (max threads) vs ADSALA (ML-selected threads), bucketed by
// aggregate GEMM memory footprint (0-100 .. 400-500 MB).
#pragma once

#include "bench_util.h"

namespace adsala::bench {

inline void run_gflops_figure(const std::string& platform,
                              const std::string& fig_name,
                              const std::string& baseline_name) {
  print_header(fig_name + " | GFLOPS vs memory footprint, " + platform +
               " (" + baseline_name + ")");

  auto runtime = trained_runtime(platform);
  auto executor = make_executor(platform);
  const auto shapes = independent_test_shapes(test_samples());
  const int reference_threads = baseline_threads(executor);

  BenchJson json(fig_name);
  json.meta("platform", Json(platform));
  json.meta("baseline", Json(baseline_name));
  json.meta("samples", Json(shapes.size()));

  constexpr int kBucketMb = 100;
  struct Bucket {
    double flops_base = 0.0, time_base = 0.0;
    double flops_ml = 0.0, time_ml = 0.0;
    int n = 0;
  };
  std::vector<Bucket> buckets(5);
  for (const auto& shape : shapes) {
    const auto b = std::min<std::size_t>(
        static_cast<std::size_t>(shape.bytes() / (kBucketMb * 1024.0 * 1024.0)),
        buckets.size() - 1);
    const int p = runtime.select_threads(shape.m, shape.k, shape.n);
    const double t_ml = executor.measure_op(blas::OpKind::kGemm, shape, p);
    const double t_base =
        executor.measure_op(blas::OpKind::kGemm, shape, reference_threads);
    buckets[b].flops_base += shape.flops();
    buckets[b].time_base += t_base;
    buckets[b].flops_ml += shape.flops();
    buckets[b].time_ml += t_ml;
    ++buckets[b].n;
  }

  std::printf("%-12s %8s %20s %20s %8s\n", "size (MB)", "samples",
              (baseline_name + " max-thr").c_str(),
              (baseline_name + " + ML").c_str(), "ratio");
  print_rule();
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b].n == 0) continue;
    const double g_base = buckets[b].flops_base / buckets[b].time_base / 1e9;
    const double g_ml = buckets[b].flops_ml / buckets[b].time_ml / 1e9;
    std::printf("%4zu-%-7zu %8d %17.1f GF %17.1f GF %8.2f\n", b * kBucketMb,
                (b + 1) * kBucketMb, buckets[b].n, g_base, g_ml,
                g_ml / g_base);
    JsonObject row;
    row["bucket_mb_lo"] = Json(b * kBucketMb);
    row["bucket_mb_hi"] = Json((b + 1) * kBucketMb);
    row["samples"] = Json(buckets[b].n);
    row["gflops_baseline"] = Json(g_base);
    row["gflops_ml"] = Json(g_ml);
    row["ratio"] = Json(g_ml / g_base);
    json.add(std::move(row));
  }
  std::printf("\n[paper] ML-selected threads lift GFLOPS in every bucket; "
              "largest relative gain in the 0-100 MB range\n");
}

}  // namespace adsala::bench
