#include "core/snapshot.h"

#include "core/op_registry.h"
#include "core/trainer.h"
#include "preprocess/features.h"

namespace adsala::core {

const char* serving_mode_name(ServingMode mode) {
  switch (mode) {
    case ServingMode::kModelServed: return "model";
    case ServingMode::kGemmProxy: return "gemm_proxy";
    case ServingMode::kHeuristicFallback: return "heuristic";
  }
  return "heuristic";
}

std::uint64_t MemoCache::pack_key(blas::OpKind op, long m, long k, long n,
                                  int elem_bytes) {
  const std::uint64_t elem_code =
      elem_bytes == 4 ? 1u : (elem_bytes == 8 ? 2u : 0u);
  if (elem_code == 0) return 0;
  if (m < 0 || m > 0xFFFF || k < 0 || k > 0xFFFF || n < 0 || n > 0xFFFF) {
    return 0;
  }
  const auto code = static_cast<std::uint64_t>(blas::op_code(op));
  if (code > 0x7) return 0;
  return (1ull << 63) | (code << 60) | (elem_code << 58) |
         (static_cast<std::uint64_t>(m) << 42) |
         (static_cast<std::uint64_t>(k) << 26) |
         (static_cast<std::uint64_t>(n) << 10);
}

ServingMode ServingSnapshot::mode_for(blas::OpKind op) const {
  if (model == nullptr) return ServingMode::kHeuristicFallback;
  if (op == blas::OpKind::kGemm) return ServingMode::kModelServed;
  if (op_aware() &&
      preprocess::op_served_first_class(op, pipeline.schema_columns())) {
    return ServingMode::kModelServed;
  }
  return ServingMode::kGemmProxy;
}

bool ServingSnapshot::op_aware() const {
  // An op indicator must have *survived* preprocessing: a GEMM-only campaign
  // gathered with the op-aware schema drops the constant op_* columns at fit
  // time and therefore answers family queries exactly like the proxy.
  if (model == nullptr) return false;
  for (std::size_t j : pipeline.kept_features()) {
    const std::size_t col = pipeline.schema_columns()[j];
    if (col >= preprocess::kNumFeatures &&
        col < preprocess::kNumFeatures + blas::kNumOps) {
      return true;
    }
  }
  return false;
}

namespace {

/// Deterministic analytic argmin over the grid, through the op's registry
/// cost model on the equivalent-GEMM shape (heuristic mode only) — the same
/// literals the simulated platforms are timed with, so the occupancy rule
/// inherits their qualitative behaviour (skinny shapes cap out early, big
/// cubes take the machine).
int heuristic_threads(const ServingSnapshot& snap, blas::OpKind op,
                      const simarch::GemmShape& shape) {
  const simarch::OpCostModel& cost = op_traits(op).cost;
  simarch::ExecPolicy policy;
  int best = snap.thread_grid.front();
  double best_time = 0.0;
  for (std::size_t i = 0; i < snap.thread_grid.size(); ++i) {
    policy.nthreads = snap.thread_grid[i];
    const double t =
        snap.fallback_model->time_op(shape, policy, cost).total();
    if (i == 0 || t < best_time) {
      best_time = t;
      best = snap.thread_grid[i];
    }
  }
  return best;
}

}  // namespace

int ServingSnapshot::select_threads(blas::OpKind op, long m, long k, long n,
                                    int elem_bytes) const {
  const std::uint64_t key = MemoCache::pack_key(op, m, k, n, elem_bytes);
  int threads = 0;
  if (key != 0 && memo.lookup(key, &threads)) return threads;

  const simarch::GemmShape shape{m, k, n, elem_bytes};
  if (model != nullptr) {
    const std::size_t best =
        predict_best_grid_index(*model, pipeline, shape, thread_grid, op,
                                blas::kernels::Variant::kAuto,
                                evaluator.get());
    threads = thread_grid[best];
  } else {
    threads = heuristic_threads(*this, op, shape);  // degraded serving mode
  }
  if (key != 0) memo.insert(key, threads);
  return threads;
}

}  // namespace adsala::core
