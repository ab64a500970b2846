// The operation registry — one pluggable row per served level-3 operation.
//
// blas/op.h names the family (enum, stable code, spelling); this registry
// carries everything the pipeline needs to *run* an operation, so no layer
// switches on OpKind any more:
//   - shape canonicalisation between the op's family coordinates and the
//     stored equivalent-GEMM shape (docs/OPERATIONS.md conventions),
//   - the memory-capped domain sampler for gathering campaigns,
//   - the analytic cost model the simulated platforms time it with,
//   - the native timing closure that runs the real substrate routine.
// It is the only per-op table: simarch/ and sampling/ provide the generic
// cost model and samplers these rows parameterise, and name no operation.
//
// Adding an operation is one blas/op.h table row, one OpTraits row in
// op_registry.cpp, and the substrate kernel file itself; the sampler
// factory (gather), both measure paths (executors), the runtime selection
// API (AdsalaGemm::select_threads(op, ...)), CLI flags, and the select-bench
// family all pick the new row up without edits. TRMM landed exactly this
// way, and every built-in row has its shape — see docs/OPERATIONS.md for
// the worked recipe.
#pragma once

#include <memory>
#include <span>

#include "blas/op.h"
#include "sampling/domain.h"
#include "simarch/machine_model.h"

namespace adsala::core {

/// Pluggable description of one operation. Function members are plain
/// pointers so rows are constexpr-constructible literals.
struct OpTraits {
  blas::OpKind op = blas::OpKind::kGemm;

  /// Family arity: 3 for the full (m, k, n) GEMM domain, 2 for the derived
  /// families.
  int family_dims = 3;

  /// Family coordinate labels, family_dims entries (e.g. {"n", "k"} for
  /// SYRK); drives CLI flag usage text and bench row labels.
  const char* coord_names[3] = {nullptr, nullptr, nullptr};

  /// Canonicalises family coordinates into the stored equivalent-GEMM shape
  /// (2-D families ignore z).
  simarch::GemmShape (*to_shape)(long x, long y, long z,
                                 int elem_bytes) = nullptr;

  /// Recovers the family coordinates from a stored shape (inverse of
  /// to_shape; unused outputs are left untouched for 2-D families).
  void (*from_shape)(const simarch::GemmShape& shape, long* x, long* y,
                     long* z) = nullptr;

  /// Domain sampler factory over the shared campaign config.
  std::unique_ptr<sampling::DomainSampler> (*make_sampler)(
      const sampling::DomainConfig& config) = nullptr;

  /// Analytic deviation from the GEMM cost model
  /// (simarch::MachineModel::time_op / measure_op).
  simarch::OpCostModel cost;

  /// Mean seconds per call of the real substrate routine on the host
  /// (fp32/fp64 selected by shape.elem_bytes; warm-up + `iterations` timed
  /// runs, the paper's SS V-B.3 protocol).
  double (*measure_native)(const simarch::GemmShape& shape, int nthreads,
                           int iterations) = nullptr;
};

/// The traits row of one registered operation. Every blas/op.h table row has
/// exactly one (enforced by static_asserts in op_registry.cpp).
const OpTraits& op_traits(blas::OpKind op);

/// Every traits row, in blas/op.h table (== code) order.
std::span<const OpTraits> op_registry();

}  // namespace adsala::core
