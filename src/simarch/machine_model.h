// Analytical GEMM runtime model over a CpuTopology.
//
// Substitutes for running MKL/BLIS on the paper's Setonix and Gadi nodes.
// The model decomposes a multi-threaded GEMM call into the same three
// components the paper's VTune profiling isolates (Table VII) --
// synchronisation, data copy (packing), kernel FLOPs -- plus thread spawn,
// and reproduces the mechanisms that make the optimal thread count vary:
//   - parallel FLOP rate with SMT marginal gain and SIMD-tile efficiency
//     loss on skinny dimensions,
//   - roofline memory bound with socket bandwidth saturation and NUMA
//     interleave efficiency,
//   - ceil-division load imbalance over micro-tiles,
//   - log2(p) barriers per cache-block iteration (worse across sockets),
//   - per-thread workspace setup and a p^2 copy-contention term that bites
//     only on small footprints (the paper's 64x2048x64 pathology),
//   - single-thread fast path with no packing or sync (Table VII, p=1 row).
// Other operations are the GEMM model of their stored equivalent-GEMM shape
// adjusted by an OpCostModel literal; the op registry
// (core/op_registry.cpp) holds one per operation, so this file names none.
// measure_op applies deterministic log-normal noise seeded from the inputs
// so repeated experiments are reproducible.
#pragma once

#include <cstdint>

#include "simarch/topology.h"

namespace adsala::simarch {

/// GEMM problem shape; elem_bytes = 4 (SGEMM) or 8 (DGEMM).
struct GemmShape {
  long m = 0;
  long k = 0;
  long n = 0;
  int elem_bytes = 4;

  double flops() const { return 2.0 * double(m) * double(k) * double(n); }
  double bytes() const {
    return double(elem_bytes) *
           (double(m) * k + double(k) * n + double(m) * n);
  }
};

/// OpenMP-style placement policy (paper SS V-B.4: OMP_PLACES=cores|threads).
enum class Affinity { kCores, kThreads };

struct ExecPolicy {
  int nthreads = 0;  ///< <=0 means the platform maximum
  Affinity affinity = Affinity::kCores;
  bool allow_smt = true;        ///< hyper-threading enabled (Tables V vs VI)
  bool numa_interleave = true;  ///< paper's benchmark NUMA memory policy
};

/// Per-component wall-time in seconds (Table VII columns).
struct TimingBreakdown {
  double spawn_s = 0.0;
  double sync_s = 0.0;
  double copy_s = 0.0;
  double kernel_s = 0.0;

  double total() const { return spawn_s + sync_s + copy_s + kernel_s; }
};

/// Declarative deviation of one operation's cost from the GEMM model. The
/// op registry (core/op_registry.cpp) carries one per operation, so the
/// analytic measure path of a new op is a literal, not a new method. The
/// default-constructed value is the identity: plain GEMM.
///   - triangle_kernel: only the uplo triangle's micro-tiles execute, so the
///     kernel component scales by (d + 1) / (2d) with d the triangle
///     dimension (shape.n under the m == n convention, shape.m under the
///     m == k one — identical for in-convention shapes);
///   - serial_diag_chain: diagonal-block solves run at single-thread rate
///     (an Amdahl term that vanishes at p = 1);
///   - copy_mult / sync_mult: packing surcharges and extra barrier sweeps;
///   - noise_salt decorrelates the op's measurement noise stream from the
///     GEMM one, so mixed-op campaigns never share draws.
struct OpCostModel {
  bool triangle_kernel = false;
  bool serial_diag_chain = false;
  double copy_mult = 1.0;
  double sync_mult = 1.0;
  std::uint64_t noise_salt = 0;
};

class MachineModel {
 public:
  explicit MachineModel(CpuTopology topo, std::uint64_t noise_seed = 42,
                        double noise_sigma = 0.08);

  const CpuTopology& topology() const { return topo_; }

  /// Threads actually used for a request (clamped to the platform maximum).
  int resolve_threads(const ExecPolicy& policy) const;

  /// Noise-free breakdown of one call of an operation described by an
  /// OpCostModel, applied on top of the GEMM breakdown of the stored
  /// equivalent-GEMM shape. The default cost model times a plain GEMM.
  TimingBreakdown time_op(const GemmShape& shape, const ExecPolicy& policy,
                          const OpCostModel& cost = {}) const;

  /// Mean of `iterations` noisy total-time draws (the paper times 10
  /// iterations per configuration, SS V-B.3); the cost model's noise salt
  /// keeps the stream decorrelated from every other op's. Deterministic in
  /// (inputs, seed).
  double measure_op(const GemmShape& shape, const ExecPolicy& policy,
                    const OpCostModel& cost = {}, int iterations = 10) const;

  /// Exhaustive argmin of the GEMM measure_op over 1..max_threads. Returns the
  /// optimal thread count; if best_time is non-null stores its runtime.
  int optimal_threads(const GemmShape& shape, ExecPolicy policy,
                      double* best_time = nullptr) const;

 private:
  /// The GEMM breakdown every OpCostModel adjusts.
  TimingBreakdown time_base(const GemmShape& shape,
                            const ExecPolicy& policy) const;

  double effective_bandwidth(int cores_used, int sockets_used,
                             bool interleave) const;

  CpuTopology topo_;
  std::uint64_t noise_seed_;
  double noise_sigma_;
};

}  // namespace adsala::simarch
