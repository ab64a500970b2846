#include "core/executor.h"

#include <algorithm>

#include "common/thread_pool.h"
#include "core/op_registry.h"

namespace adsala::core {

double SimulatedExecutor::measure_op(blas::OpKind op,
                                     const simarch::GemmShape& shape,
                                     int nthreads, int iterations) {
  simarch::ExecPolicy policy = base_policy_;
  policy.nthreads = nthreads;
  return model_.measure_op(shape, policy, op_traits(op).cost, iterations);
}

NativeExecutor::NativeExecutor(int max_threads)
    : max_threads_(max_threads > 0
                       ? max_threads
                       : static_cast<int>(ThreadPool::global().max_threads())) {}

double NativeExecutor::measure_op(blas::OpKind op,
                                  const simarch::GemmShape& shape,
                                  int nthreads, int iterations) {
  nthreads = std::clamp(nthreads, 1, max_threads_);
  return op_traits(op).measure_native(shape, nthreads, iterations);
}

std::vector<int> default_thread_grid(int max_threads) {
  static constexpr int kLadder[] = {1,  2,  3,  4,   6,   8,   12,  16,
                                    20, 24, 32, 40,  48,  64,  80,  96,
                                    128, 160, 192, 224, 256};
  std::vector<int> grid;
  for (int p : kLadder) {
    if (p < max_threads) grid.push_back(p);
  }
  grid.push_back(max_threads);
  return grid;
}

}  // namespace adsala::core
