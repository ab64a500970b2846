// Shared driver for Figures 13 (Setonix) and 14 (Gadi): GFLOPS sweeps over
// predesigned matrix families — square-ish sweeps with one small fixed
// dimension, and skinny sweeps with two small fixed dimensions. Small values
// are {32, 64, 128, 256}; swept values are 128..4096 (powers of two), as in
// the paper.
#pragma once

#include "bench_util.h"

namespace adsala::bench {

inline void run_predesigned(const std::string& platform,
                            const std::string& fig_name,
                            const std::string& baseline_name) {
  print_header(fig_name + " | predesigned GEMM sweeps, " + platform + " (" +
               baseline_name + " vs " + baseline_name + "+ML)");

  auto runtime = trained_runtime(platform);
  auto executor = make_executor(platform);
  const int reference_threads = baseline_threads(executor);

  const std::vector<long> sweep = {128, 256, 512, 1024, 2048, 4096};
  const std::vector<long> small = {32, 64, 128, 256};

  // family id: which dimensions are swept together / held small.
  struct Family {
    const char* label;       // printf pattern
    int fixed_count;         // 1 or 2 fixed small dims
    // maps (fixed, swept) -> (m, k, n)
    simarch::GemmShape (*make)(long fixed, long swept);
  };
  const Family families[] = {
      {"n,k swept (m=%ld)", 1,
       [](long f, long s) { return simarch::GemmShape{f, s, s, 4}; }},
      {"m,n swept (k=%ld)", 1,
       [](long f, long s) { return simarch::GemmShape{s, f, s, 4}; }},
      {"m,k swept (n=%ld)", 1,
       [](long f, long s) { return simarch::GemmShape{s, s, f, 4}; }},
      {"m swept (k,n=%ld)", 2,
       [](long f, long s) { return simarch::GemmShape{s, f, f, 4}; }},
      {"k swept (m,n=%ld)", 2,
       [](long f, long s) { return simarch::GemmShape{f, s, f, 4}; }},
      {"n swept (m,k=%ld)", 2,
       [](long f, long s) { return simarch::GemmShape{f, f, s, 4}; }},
  };

  BenchJson json(fig_name);
  json.meta("platform", Json(platform));
  json.meta("baseline", Json(baseline_name));

  for (const auto& fam : families) {
    for (long f : small) {
      char title[64];
      std::snprintf(title, sizeof title, fam.label, f);
      std::printf("\n%-22s %10s %14s %14s %9s %7s\n", title, "sweep",
                  "base (GF)", "ML (GF)", "speedup", "ML thr");
      for (long s : sweep) {
        const auto shape = fam.make(f, s);
        const int p = runtime.select_threads(shape.m, shape.k, shape.n);
        const double t_ml =
            executor.measure_op(blas::OpKind::kGemm, shape, p);
        const double t_base =
            executor.measure_op(blas::OpKind::kGemm, shape, reference_threads);
        std::printf("%-22s %10ld %14.1f %14.1f %9.2f %7d\n", "", s,
                    shape.flops() / t_base / 1e9, shape.flops() / t_ml / 1e9,
                    t_base / t_ml, p);
        JsonObject row;
        row["family"] = Json(std::string(title));
        row["swept"] = Json(s);
        row["m"] = Json(shape.m);
        row["k"] = Json(shape.k);
        row["n"] = Json(shape.n);
        row["gflops_baseline"] = Json(shape.flops() / t_base / 1e9);
        row["gflops_ml"] = Json(shape.flops() / t_ml / 1e9);
        row["speedup"] = Json(t_base / t_ml);
        row["ml_threads"] = Json(p);
        json.add(std::move(row));
      }
    }
  }
  std::printf("\n[paper] one-small-dim families gain moderately and grow "
              "with the swept size; two-small-dim families show the largest "
              "gains (up to 30-80x on Gadi's pathological cases)\n");
}

}  // namespace adsala::bench
