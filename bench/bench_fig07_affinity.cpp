// Figure 7: core-based vs thread-based OpenMP affinity. Mean GEMM runtime
// over a <=500 MB sample as a function of the thread count, on Setonix
// (left) and Gadi (right). Paper finding: core-based wins below ~half the
// maximum thread count and the two converge at full subscription.
#include "bench_util.h"
#include "common/stats.h"

using namespace adsala;

namespace {

void run_platform(const std::string& platform) {
  const auto topo = bench::topology_for(platform);
  simarch::MachineModel model(topo, 42);
  sampling::DomainConfig domain = bench::train_domain();
  domain.seed = 777;
  sampling::GemmDomainSampler sampler(domain);
  const auto shapes = sampler.sample(120);

  std::printf("\n%s (max %d threads)\n", platform.c_str(),
              topo.max_threads());
  std::printf("%8s %16s %16s %8s\n", "threads", "core-based (us)",
              "thread-based (us)", "ratio");
  for (int p : core::default_thread_grid(topo.max_threads())) {
    double sum_core = 0.0, sum_thread = 0.0;
    for (const auto& s : shapes) {
      simarch::ExecPolicy pc{.nthreads = p,
                             .affinity = simarch::Affinity::kCores};
      simarch::ExecPolicy pt{.nthreads = p,
                             .affinity = simarch::Affinity::kThreads};
      sum_core += model.measure_op(s, pc);
      sum_thread += model.measure_op(s, pt);
    }
    std::printf("%8d %16.1f %16.1f %8.2f\n", p,
                1e6 * sum_core / static_cast<double>(shapes.size()),
                1e6 * sum_thread / static_cast<double>(shapes.size()),
                sum_thread / sum_core);
  }
}

}  // namespace

int main() {
  bench::print_header(
      "Fig. 7 | thread affinity comparison (mean GEMM runtime vs threads)");
  run_platform("setonix");
  run_platform("gadi");
  std::printf("\n[paper] core-based affinity faster for p below ~half max; "
              "policies converge at max threads\n");
  return 0;
}
