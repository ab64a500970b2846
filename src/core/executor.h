// GEMM execution backends for the installation-time timing harness.
//
// The whole ADSALA pipeline is written against this interface so the same
// installation + runtime workflow runs on (a) the real host CPU with the
// from-scratch BLAS substrate, or (b) the simulated Setonix/Gadi paper
// platforms. measure_op() returns the mean wall time of `iterations` runs of
// one call at a fixed thread count — the paper's timing protocol (SS V-B.3).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "blas/op.h"
#include "simarch/machine_model.h"

namespace adsala::core {

class GemmExecutor {
 public:
  virtual ~GemmExecutor() = default;

  virtual std::string name() const = 0;
  virtual int max_threads() const = 0;

  /// Mean seconds per call of `op` over `iterations` timed runs. Non-GEMM
  /// shapes use the equivalent-GEMM conventions of docs/OPERATIONS.md
  /// (SYRK: m == n, A n x k; TRSM / SYMM / TRMM: m == k == triangle or
  /// symmetric n, shape.n = right-hand-side columns).
  virtual double measure_op(blas::OpKind op, const simarch::GemmShape& shape,
                            int nthreads, int iterations = 10) = 0;
};

/// Backend over the analytical machine model (paper-scale platforms).
class SimulatedExecutor : public GemmExecutor {
 public:
  SimulatedExecutor(simarch::MachineModel model,
                    simarch::ExecPolicy base_policy = {})
      : model_(std::move(model)), base_policy_(base_policy) {}

  std::string name() const override {
    return model_.topology().name + (base_policy_.allow_smt ? "" : "-noht");
  }
  int max_threads() const override {
    return model_.topology().max_threads(base_policy_.allow_smt);
  }
  /// Times the operation through its registry cost model
  /// (core/op_registry.cpp), so a newly registered op is simulated without
  /// touching this class.
  double measure_op(blas::OpKind op, const simarch::GemmShape& shape,
                    int nthreads, int iterations = 10) override;

  const simarch::MachineModel& model() const { return model_; }
  const simarch::ExecPolicy& base_policy() const { return base_policy_; }

 private:
  simarch::MachineModel model_;
  simarch::ExecPolicy base_policy_;
};

/// Backend running the from-scratch BLAS substrate on the host CPU.
/// Operands are 64-byte aligned and filled with pseudo-random values; one
/// warm-up call precedes the timed iterations (paper SS V-B.3).
class NativeExecutor : public GemmExecutor {
 public:
  explicit NativeExecutor(int max_threads = 0);

  std::string name() const override { return "native"; }
  int max_threads() const override { return max_threads_; }
  /// Runs the op's registry-provided native timing closure (the real
  /// substrate routine, lower triangle / no transpose for the triangular
  /// families); a newly registered op is timed without touching this class.
  double measure_op(blas::OpKind op, const simarch::GemmShape& shape,
                    int nthreads, int iterations = 10) override;

 private:
  int max_threads_;
};

/// Thread counts worth probing on a platform: dense at the bottom (where
/// small-GEMM optima live), geometric above, always including max.
std::vector<int> default_thread_grid(int max_threads);

}  // namespace adsala::core
