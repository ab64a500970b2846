// Shared driver for Tables V (hyper-threading on) and VI (off): end-to-end
// ADSALA speedup statistics over the 174-sample independent low-discrepancy
// test set, in the 0-500 MB and 0-100 MB footprint ranges, on both
// platforms. Speedups include the runtime model-evaluation overhead, as in
// the paper.
#pragma once

#include <cmath>

#include "bench_util.h"
#include "common/stats.h"
#include "common/timer.h"

namespace adsala::bench {

struct SpeedupColumn {
  std::string label;
  std::vector<double> speedups;
};

inline SpeedupColumn measure_speedups(const std::string& platform, bool smt,
                                      std::size_t cap_mb) {
  auto runtime = trained_runtime(platform, smt);
  auto executor = make_executor(platform, smt);
  const auto shapes = independent_test_shapes(test_samples(), cap_mb);
  const int reference_threads = bench::baseline_threads(executor);

  SpeedupColumn col;
  col.label = platform + (smt ? "" : "-noht") + " 0-" +
              std::to_string(cap_mb) + "MB";
  for (const auto& shape : shapes) {
    WallTimer eval_timer;
    const int p = runtime.select_threads(shape.m, shape.k, shape.n);
    const double t_eval = eval_timer.seconds();
    const double t_adsala =
        executor.measure_op(blas::OpKind::kGemm, shape, p) + t_eval;
    const double t_orig =
        executor.measure_op(blas::OpKind::kGemm, shape, reference_threads);
    col.speedups.push_back(t_orig / t_adsala);
  }
  return col;
}

inline void print_speedup_table(const std::vector<SpeedupColumn>& cols) {
  std::printf("%-18s", "statistic");
  for (const auto& c : cols) std::printf(" %18s", c.label.c_str());
  std::printf("\n");
  print_rule();
  auto row = [&](const char* name, auto fn) {
    std::printf("%-18s", name);
    for (const auto& c : cols) std::printf(" %18.2f", fn(c.speedups));
    std::printf("\n");
  };
  using V = const std::vector<double>&;
  row("mean", [](V v) { return mean(v); });
  row("stddev", [](V v) { return stddev(v); });
  row("min", [](V v) { return min_of(v); });
  row("p25", [](V v) { return percentile(v, 25); });
  row("p50", [](V v) { return percentile(v, 50); });
  row("p75", [](V v) { return percentile(v, 75); });
  row("max", [](V v) { return max_of(v); });
}

inline void run_speedup_table(bool smt, const std::string& table_name) {
  print_header(table_name + " | ADSALA speedup statistics, hyper-threading " +
               (smt ? "ON" : "OFF"));
  std::vector<SpeedupColumn> cols;
  for (const std::string platform : {"setonix", "gadi"}) {
    for (std::size_t cap : {500u, 100u}) {
      cols.push_back(measure_speedups(platform, smt, cap));
    }
  }
  print_speedup_table(cols);

  BenchJson json(table_name);
  json.meta("smt", Json(smt));
  for (const auto& c : cols) {
    JsonObject row;
    row["column"] = Json(c.label);
    row["mean"] = Json(mean(c.speedups));
    row["stddev"] = Json(stddev(c.speedups));
    row["min"] = Json(min_of(c.speedups));
    row["p25"] = Json(percentile(c.speedups, 25));
    row["p50"] = Json(percentile(c.speedups, 50));
    row["p75"] = Json(percentile(c.speedups, 75));
    row["max"] = Json(max_of(c.speedups));
    json.add(std::move(row));
  }
  std::printf("\n[paper, HT on ] mean: setonix 1.32 (0-500) / 1.41 (0-100); "
              "gadi 1.07 / 1.26\n");
  std::printf("[paper, HT off] mean: setonix 1.24 / 1.55; gadi 1.02 / "
              "1.34\n");
}

}  // namespace adsala::bench
