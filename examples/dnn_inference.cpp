// DNN inference scenario: the paper's SS I motivation — convolution layers
// lowered to GEMM produce small and irregular shapes (e.g. ResNet's 64x3000
// operands) where the default "use every core" policy wastes most of the
// machine. This example runs a ResNet-like stack of lowered GEMMs on the
// simulated Gadi node and compares the default policy against ADSALA's
// per-layer thread selection, exercising the memoised repeat-call path the
// way a batched inference loop would.
#include <cstdio>
#include <string>
#include <vector>

#include "core/adsala.h"
#include "core/install.h"

using namespace adsala;

namespace {

struct Layer {
  const char* name;
  long m, k, n;  // im2col-lowered GEMM: filters x patch x spatial
};

// conv layers of a ResNet-ish forward pass, im2col-lowered (batch 1).
const Layer kLayers[] = {
    {"conv1   7x7x64 ", 64, 147, 12544},
    {"res2 1x1x64    ", 64, 64, 3136},
    {"res2 3x3x64    ", 64, 576, 3136},
    {"res3 1x1x128   ", 128, 128, 784},
    {"res3 3x3x128   ", 128, 1152, 784},
    {"res4 3x3x256   ", 256, 2304, 196},
    {"res5 3x3x512   ", 512, 4608, 49},
    {"fc   1000      ", 1000, 2048, 1},
};

}  // namespace

int main(int argc, char** argv) {
  const std::size_t train_samples = argc > 1 ? std::stoul(argv[1]) : 250;

  core::SimulatedExecutor executor(
      simarch::MachineModel(simarch::gadi_topology(), 42));

  std::printf("training ADSALA on the simulated Gadi node (%zu shapes)...\n",
              train_samples);
  core::GatherConfig gather;
  gather.n_samples = train_samples;
  gather.domain.memory_cap_bytes = 200ull * 1024 * 1024;
  gather.domain.dim_max = 16000;
  core::TrainOptions train;
  train.candidates = {"decision_tree", "xgboost"};
  train.tune = false;
  auto data = core::gather_timings(executor, gather);
  core::AdsalaGemm adsala(core::train_and_select(data, train));
  std::printf("selected model: %s\n\n", adsala.model_name().c_str());

  const int max_threads = executor.max_threads();
  double total_default = 0.0, total_ml = 0.0;
  std::printf("%-16s %14s %12s %12s %8s %7s\n", "layer", "GEMM (m,k,n)",
              "default(us)", "adsala(us)", "speedup", "thr");
  for (const auto& layer : kLayers) {
    const simarch::GemmShape shape{layer.m, layer.k, layer.n, 4};
    const int p = adsala.select_threads(layer.m, layer.k, layer.n);
    const double t_default =
        executor.measure_op(blas::OpKind::kGemm, shape, max_threads);
    const double t_ml = executor.measure_op(blas::OpKind::kGemm, shape, p);
    total_default += t_default;
    total_ml += t_ml;
    std::printf("%-16s %5ld,%5ld,%5ld %12.1f %12.1f %8.2f %7d\n", layer.name,
                layer.m, layer.k, layer.n, 1e6 * t_default, 1e6 * t_ml,
                t_default / t_ml, p);
  }
  std::printf("\nforward pass GEMM time: default %.2f ms -> adsala %.2f ms "
              "(%.2fx)\n",
              1e3 * total_default, 1e3 * total_ml,
              total_default / total_ml);

  // Batched inference: the same shapes repeat every batch; selection is
  // memoised so the model is not re-evaluated (paper SS III-C).
  std::printf("\nrunning 64 batches; repeated shapes hit the memoised "
              "selection path\n");
  for (int batch = 0; batch < 64; ++batch) {
    for (const auto& layer : kLayers) {
      (void)adsala.select_threads(layer.m, layer.k, layer.n);
    }
  }
  std::printf("done.\n");
  return 0;
}
