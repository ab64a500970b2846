#include "simarch/machine_model.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace adsala::simarch {

namespace {

double ceil_div(double a, double b) { return std::ceil(a / b); }

/// Per-core FLOPs per cycle for an element size (fp64 runs at half the fp32
/// vector rate) — the one place this rule lives.
double fp_per_cycle(const CpuTopology& topo, int elem_bytes) {
  return elem_bytes == 4 ? topo.fp32_flops_per_cycle
                         : topo.fp32_flops_per_cycle / 2.0;
}

/// Stable mix of the model seed with the experiment coordinates so noise is
/// reproducible yet uncorrelated across configurations and iterations.
std::uint64_t mix_seed(std::uint64_t seed, long m, long k, long n, int p,
                       int aff, int smt, int iter) {
  auto mix = [](std::uint64_t h, std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
  };
  std::uint64_t h = seed;
  h = mix(h, static_cast<std::uint64_t>(m));
  h = mix(h, static_cast<std::uint64_t>(k));
  h = mix(h, static_cast<std::uint64_t>(n));
  h = mix(h, static_cast<std::uint64_t>(p));
  h = mix(h, static_cast<std::uint64_t>(aff));
  h = mix(h, static_cast<std::uint64_t>(smt));
  h = mix(h, static_cast<std::uint64_t>(iter));
  return h;
}

}  // namespace

MachineModel::MachineModel(CpuTopology topo, std::uint64_t noise_seed,
                           double noise_sigma)
    : topo_(std::move(topo)),
      noise_seed_(noise_seed),
      noise_sigma_(noise_sigma) {}

int MachineModel::resolve_threads(const ExecPolicy& policy) const {
  const int max = topo_.max_threads(policy.allow_smt);
  if (policy.nthreads <= 0) return max;
  return std::clamp(policy.nthreads, 1, max);
}

double MachineModel::effective_bandwidth(int cores_used, int sockets_used,
                                         bool interleave) const {
  const double core_cap = cores_used * topo_.core_bw_gbs;
  double socket_bw;
  if (interleave) {
    // Interleaved pages spread over every NUMA domain: the used sockets pull
    // locally at full rate and remotely through the inter-socket links.
    const double local = sockets_used * topo_.socket_bw_gbs;
    const double remote = (topo_.sockets - sockets_used) *
                          topo_.socket_bw_gbs * topo_.remote_bw_frac;
    socket_bw = (local + remote) * topo_.interleave_factor;
  } else {
    socket_bw = sockets_used * topo_.socket_bw_gbs;
  }
  return std::min(core_cap, socket_bw) * 1e9;  // GB/s -> B/s
}

TimingBreakdown MachineModel::time_base(const GemmShape& shape,
                                        const ExecPolicy& policy) const {
  TimingBreakdown out;
  const int p_requested = resolve_threads(policy);
  const double m = static_cast<double>(shape.m);
  const double k = static_cast<double>(shape.k);
  const double n = static_cast<double>(shape.n);
  if (shape.m <= 0 || shape.k <= 0 || shape.n <= 0) return out;

  // Library-internal dynamic threading (MKL_DYNAMIC-like): the effective
  // team is capped when the FLOP volume is small. The heuristic counts
  // FLOPs only, so large-k shapes pass through it with a full — and
  // counterproductive — team: the paper's core observation.
  const int dyn_cap = static_cast<int>(std::max(
      1.0, shape.flops() / (topo_.dynamic_mflops_per_thread * 1e6)));
  const int p = std::min(p_requested, dyn_cap);

  // ---- thread placement -------------------------------------------------
  int cores_used;
  if (policy.affinity == Affinity::kCores) {
    // OMP_PLACES=cores: one thread per physical core first.
    cores_used = std::min(p, topo_.total_cores());
  } else {
    // OMP_PLACES=threads (bind close): SMT siblings fill up first.
    cores_used = std::min(ceil_div(p, topo_.smt_per_core) < 1.0
                              ? 1
                              : static_cast<int>(ceil_div(p, topo_.smt_per_core)),
                          topo_.total_cores());
  }
  const double threads_per_core = static_cast<double>(p) / cores_used;
  const int sockets_used = static_cast<int>(
      std::min<double>(topo_.sockets, ceil_div(cores_used, topo_.cores_per_socket)));

  // ---- kernel: FLOP roofline ---------------------------------------------
  const double flops = shape.flops();
  const double smt_factor =
      1.0 + topo_.smt_marginal * (threads_per_core - 1.0);
  const double rate = cores_used * topo_.freq_ghz * 1e9 *
                      fp_per_cycle(topo_, shape.elem_bytes) * smt_factor *
                      topo_.peak_frac;

  // SIMD-tile utilisation: skinny m/n waste vector lanes, short k pays the
  // pipeline ramp (why the paper's m=64 shapes run far below peak).
  const double u_m = m / (ceil_div(m, topo_.model_mr) * topo_.model_mr);
  const double u_n = n / (ceil_div(n, topo_.model_nr) * topo_.model_nr);
  const double u_k = k / (k + topo_.kernel_rampup_k);
  const double u = u_m * u_n * u_k;

  // Load imbalance: micro-tiles divide unevenly among p threads.
  const double tiles = ceil_div(m, topo_.model_mr) * ceil_div(n, topo_.model_nr);
  const double imbalance = ceil_div(tiles, p) * p / tiles;

  const double t_flop = flops * imbalance / (rate * u);

  // Memory roofline: packed A streamed once per NC slab of B; C touched once
  // per KC slab of k.
  const double k_slabs = ceil_div(k, topo_.model_kc);
  const double n_slabs = ceil_div(n, topo_.model_nc);
  const double dram_bytes =
      shape.elem_bytes * (m * k * n_slabs + k * n + 2.0 * m * n * k_slabs);
  const double bw =
      effective_bandwidth(cores_used, sockets_used, policy.numa_interleave);
  const double t_mem = dram_bytes / bw;

  out.kernel_s = std::max(t_flop, t_mem) + topo_.call_overhead_us * 1e-6;

  if (p == 1) {
    // Single-thread fast path: no packing workspace, no synchronisation
    // (matches Table VII's zero sync/copy at one thread). Requesting extra
    // threads the dynamic heuristic then parks still costs their wake-up.
    out.spawn_s = (p_requested - 1) * topo_.spawn_us_per_thread * 1e-6;
    return out;
  }

  // ---- data copy (packing) -----------------------------------------------
  const double copy_bytes =
      shape.elem_bytes * (m * k * n_slabs + k * n);  // A per slab + B once
  const double t_stream = copy_bytes / bw;
  const double interleave_pen = policy.numa_interleave ? 1.0 : 0.6;
  // Threads with no micro-tile assigned never touch a packing workspace, so
  // degenerate shapes (m = n = 2) do not pay per-thread copy costs.
  const double busy_threads = std::min<double>(p, tiles);
  const double t_workspace =
      busy_threads * topo_.workspace_us_per_thread * 1e-6 * interleave_pen;
  // Contention: threads fighting over tiny packing blocks and false-sharing
  // C lines. Two gates, both cubic so medium problems are unaffected:
  //   - per-thread FLOP slice must be small (threads have almost no work);
  //   - the m-partition must be degenerate (fewer than ~contend_row_ref rows
  //     of C per thread) — a large m gives every thread whole rows and no
  //     shared lines, so tall-skinny shapes escape.
  // The cost repeats once per KC slab of the k loop, which is why the
  // paper's 64x2048x64 case (6 slabs) suffers ~16x more copy time than
  // 64x64x4096 (1 slab) at 96 threads (Table VII).
  const double per_thread_mflops = flops / busy_threads / 1e6;
  const double gate_f =
      topo_.contend_ref_mflops / std::max(per_thread_mflops, 1e-9);
  const double gate_flops = std::min(1.0, gate_f * gate_f * gate_f);
  const double gate_r = topo_.contend_row_ref * busy_threads / m;
  const double gate_rows = std::min(1.0, gate_r * gate_r * gate_r);
  const double t_contend = busy_threads * busy_threads * topo_.contend_us *
                           1e-6 * gate_flops * gate_rows * k_slabs;
  out.copy_s = t_stream + t_workspace + t_contend;

  // ---- synchronisation -----------------------------------------------------
  const double barriers = 2.0 * k_slabs * n_slabs + 1.0;
  const double cross =
      sockets_used > 1 ? topo_.cross_socket_sync_mult : 1.0;
  out.sync_s = barriers * topo_.barrier_base_us * 1e-6 * std::log2(double(p)) *
               cross;
  // Wake-up cost follows the *requested* team size: threads the dynamic
  // heuristic benches still get woken, which is what makes over-requesting
  // threads strictly (if mildly) worse on the capped plateau.
  out.spawn_s = p_requested * topo_.spawn_us_per_thread * 1e-6;

  return out;
}

TimingBreakdown MachineModel::time_op(const GemmShape& shape,
                                      const ExecPolicy& policy,
                                      const OpCostModel& cost) const {
  TimingBreakdown out = time_base(shape, policy);
  // Triangle dimension of the stored-shape conventions: shape.m equals the
  // triangle/symmetric n under m == k, and equals shape.n under m == n, so
  // it serves both.
  const double d = static_cast<double>(shape.m);
  if (cost.triangle_kernel && d > 0.0) {
    // Only the uplo triangle's micro-tiles run: d*(d+1)*r multiply-adds vs
    // the equivalent GEMM's 2*d*d*r. Copy and sync stay at GEMM level — the
    // substrate keeps the same packing and barrier schedule — which is
    // exactly why the triangle-family optima sit at fewer threads: the fixed
    // overheads amortise over roughly half the FLOPs.
    out.kernel_s *= (d + 1.0) / (2.0 * d);
  }
  if (cost.serial_diag_chain && d > 0.0) {
    // The diagonal-block solves (one model_kc-deep triangle per panel of the
    // chain, ~kc*d*r multiply-adds in total) cannot be spread over the team:
    // each block needs every earlier block's solution. Charge their FLOPs at
    // the single-thread rate, minus the share already counted inside the
    // parallel kernel term (the (p-1)/p factor keeps p = 1 exact).
    const double r = static_cast<double>(shape.n);
    const int p = resolve_threads(policy);
    const double serial_rate = topo_.freq_ghz * 1e9 *
                               fp_per_cycle(topo_, shape.elem_bytes) *
                               topo_.peak_frac;
    const double serial_flops =
        std::min(2.0 * topo_.model_kc * d, 2.0 * d * d) * r / 2.0;
    out.kernel_s += serial_flops / serial_rate * (p - 1.0) / p;
  }
  out.copy_s *= cost.copy_mult;
  out.sync_s *= cost.sync_mult;
  return out;
}

double MachineModel::measure_op(const GemmShape& shape,
                                const ExecPolicy& policy,
                                const OpCostModel& cost,
                                int iterations) const {
  const double base = time_op(shape, policy, cost).total();
  const int p = resolve_threads(policy);
  double sum = 0.0;
  for (int it = 0; it < iterations; ++it) {
    Rng rng(mix_seed(noise_seed_ ^ cost.noise_salt, shape.m, shape.k, shape.n,
                     p, static_cast<int>(policy.affinity),
                     policy.allow_smt ? 1 : 0, it));
    double factor = rng.lognormal_factor(noise_sigma_);
    // Rare OS-noise spike, larger with more threads involved.
    if (rng.uniform() < 0.02) {
      factor *= 1.0 + rng.uniform(0.1, 0.6) * std::log2(double(p) + 1.0);
    }
    sum += base * factor;
  }
  return sum / iterations;
}

int MachineModel::optimal_threads(const GemmShape& shape, ExecPolicy policy,
                                  double* best_time) const {
  const int max = topo_.max_threads(policy.allow_smt);
  int best_p = 1;
  double best = -1.0;
  for (int p = 1; p <= max; ++p) {
    policy.nthreads = p;
    const double t = measure_op(shape, policy);
    if (best < 0.0 || t < best) {
      best = t;
      best_p = p;
    }
  }
  if (best_time != nullptr) *best_time = best;
  return best_p;
}

}  // namespace adsala::simarch
