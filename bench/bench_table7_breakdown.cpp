// Table VII: profiler-style time breakdown of two GEMM cases on Gadi —
// (64, 2048, 64) and (64, 64, 4096) — at 96 threads (no ML) vs the
// ML-selected thread count. The simulator returns the same three wall-time
// components the paper isolates with VTune: thread sync, kernel calls, data
// copy. Times are per 1000 calls, like the paper's profiling runs.
#include "bench_util.h"

using namespace adsala;

int main() {
  bench::print_header(
      "Table VII | time breakdown on Gadi, 96 threads vs ML selection");

  auto runtime = bench::trained_runtime("gadi");
  simarch::MachineModel model(simarch::gadi_topology(), 42);

  const simarch::GemmShape cases[] = {{64, 2048, 64, 4}, {64, 64, 4096, 4}};
  constexpr double kCalls = 1000.0;

  std::printf("%-14s %8s %10s %10s %10s %10s\n", "m,k,n", "threads",
              "total (s)", "sync (s)", "kernel (s)", "copy (s)");
  bench::print_rule();
  for (const auto& shape : cases) {
    const int p_ml = runtime.select_threads(shape.m, shape.k, shape.n);
    for (const int p : {96, p_ml}) {
      const auto bd = model.time_op(shape, {.nthreads = p});
      std::printf("%ld,%ld,%ld%s %8d %10.3f %10.3f %10.3f %10.3f\n", shape.m,
                  shape.k, shape.n, p == 96 ? " no ML " : " with ML",
                  p, kCalls * bd.total(), kCalls * bd.sync_s,
                  kCalls * bd.kernel_s, kCalls * bd.copy_s);
    }
    std::printf("\n");
  }
  std::printf("[paper] 64,2048,64: 167.7s total at 96 thr (163.3s copy) vs "
              "1.07s at 14 thr; 64,64,4096: 18.3s at 96 thr vs 0.89s at 1 "
              "thr with zero sync/copy\n");
  return 0;
}
