// google-benchmark microbenchmarks of the from-scratch BLAS substrate:
// GFLOPS of the blocked GEMM across shapes, thread counts, and dispatched
// micro-kernel variants (generic / avx2 / avx512, whichever the host
// supports), so a single run A/Bs the KernelSet implementations. Before
// timing anything, every variant is verified element-wise against
// reference_gemm; a mismatch fails the binary. Results are additionally
// written to BENCH_gemm_kernel.json via google-benchmark's JSON reporter;
// on an AVX-512 host that file also carries BM_KernelTierRatio1024's
// GFLOPS_avx2 / GFLOPS_avx512 / ratio counters (the avx512-vs-avx2 headline
// number at 1024^3 fp32, p = 1) and BM_SgemmSmallRepeat tracks the repeated-
// small-GEMM regime the PackArena + spin-wait fork/join changes target.
// BM_TrsmDiagSolve times each variant's TRSM diagonal-block solve
// (KernelSet::trsm_solve) alone, outside the trailing GEMM updates.
// BM_MicroKernel/<tier>/<f32|f64> times one SIMD tier's full micro-kernel
// on cache-resident panels and reports it as a fraction of that tier's FMA
// peak, measured by a pure-FMA loop in this binary.
// BM_SsymmSquare and BM_StrmmSquare time p = 1 SYMM and TRMM, and
// BM_SsyrkSquare times SYRK (square, skinny-n and wide shapes) at p = 1
// and at the pool maximum.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "blas/gemm.h"
#include "blas/kernels/dispatch.h"
#include "blas/pack_pipeline.h"
#include "blas/symm.h"
#include "blas/syrk.h"
#include "blas/trmm.h"
#include "common/aligned_buffer.h"
#include "common/rng.h"
#include "common/thread_pool.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace {

using adsala::AlignedBuffer;
using adsala::Rng;
namespace blas = adsala::blas;
namespace kernels = adsala::blas::kernels;

template <typename T>
void fill_random(AlignedBuffer<T>& buf, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<T>(rng.uniform(-1.0, 1.0));
  }
}

blas::GemmTuning tuning_for(kernels::Variant v) {
  blas::GemmTuning tuning;
  tuning.variant = v;
  return tuning;
}

void BM_SgemmSquare(benchmark::State& state, kernels::Variant variant) {
  const auto dim = static_cast<int>(state.range(0));
  const auto threads = static_cast<int>(state.range(1));
  AlignedBuffer<float> a(static_cast<std::size_t>(dim) * dim);
  AlignedBuffer<float> b(static_cast<std::size_t>(dim) * dim);
  AlignedBuffer<float> c(static_cast<std::size_t>(dim) * dim);
  fill_random(a, 1);
  fill_random(b, 2);
  const auto tuning = tuning_for(variant);
  for (auto _ : state) {
    blas::gemm<float>(blas::Trans::kNo, blas::Trans::kNo, dim, dim, dim, 1.0f,
                      a.data(), dim, b.data(), dim, 0.0f, c.data(), dim,
                      threads, tuning);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * dim * dim * dim * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}

void BM_SsymmSquare(benchmark::State& state, kernels::Variant variant) {
  const auto dim = static_cast<int>(state.range(0));
  const auto threads = static_cast<int>(state.range(1));
  AlignedBuffer<float> a(static_cast<std::size_t>(dim) * dim);
  AlignedBuffer<float> b(static_cast<std::size_t>(dim) * dim);
  AlignedBuffer<float> c(static_cast<std::size_t>(dim) * dim);
  fill_random(a, 16);
  fill_random(b, 17);
  const auto tuning = tuning_for(variant);
  for (auto _ : state) {
    blas::symm<float>(blas::Uplo::kLower, dim, dim, 1.0f, a.data(), dim,
                      b.data(), dim, 0.0f, c.data(), dim, threads, tuning);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * dim * dim * dim * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}

void BM_SsyrkSquare(benchmark::State& state, kernels::Variant variant) {
  // Args: n, k, threads (0 = pool maximum). C = A * A^T over the lower
  // triangle with beta = 0, so repeated calls do not drift.
  const auto n = static_cast<int>(state.range(0));
  const auto k = static_cast<int>(state.range(1));
  const auto threads = static_cast<int>(state.range(2));
  AlignedBuffer<float> a(static_cast<std::size_t>(n) * k);
  AlignedBuffer<float> c(static_cast<std::size_t>(n) * n);
  fill_random(a, 19);
  const auto tuning = tuning_for(variant);
  for (auto _ : state) {
    blas::syrk<float>(blas::Uplo::kLower, blas::Trans::kNo, n, k, 1.0f,
                      a.data(), k, 0.0f, c.data(), n, threads, tuning);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      blas::syrk_flops(n, k) * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}

void BM_StrmmSquare(benchmark::State& state, kernels::Variant variant) {
  // In place over B, so A is the identity: repeated calls leave B unchanged
  // (no drift toward overflow or denormals) while running the same packing
  // and kernel instructions as any other triangle.
  const auto dim = static_cast<int>(state.range(0));
  const auto threads = static_cast<int>(state.range(1));
  AlignedBuffer<float> a(static_cast<std::size_t>(dim) * dim);
  AlignedBuffer<float> b(static_cast<std::size_t>(dim) * dim);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = 0.0f;
  for (int i = 0; i < dim; ++i) a[static_cast<std::size_t>(i) * dim + i] = 1.0f;
  fill_random(b, 18);
  const auto tuning = tuning_for(variant);
  for (auto _ : state) {
    blas::trmm<float>(blas::Uplo::kLower, blas::Trans::kNo,
                      blas::Diag::kNonUnit, dim, dim, 1.0f, a.data(), dim,
                      b.data(), dim, threads, tuning);
    benchmark::DoNotOptimize(b.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      1.0 * dim * dim * dim * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}

void BM_SgemmSkinny(benchmark::State& state, kernels::Variant variant) {
  // The paper's motivating shape family: m small, k/n large (e.g. ResNet's
  // 64 x 3000 operands).
  const int m = 64;
  const auto kn = static_cast<int>(state.range(0));
  const auto threads = static_cast<int>(state.range(1));
  AlignedBuffer<float> a(static_cast<std::size_t>(m) * kn);
  AlignedBuffer<float> b(static_cast<std::size_t>(kn) * kn);
  AlignedBuffer<float> c(static_cast<std::size_t>(m) * kn);
  fill_random(a, 3);
  fill_random(b, 4);
  const auto tuning = tuning_for(variant);
  for (auto _ : state) {
    blas::gemm<float>(blas::Trans::kNo, blas::Trans::kNo, m, kn, kn, 1.0f,
                      a.data(), kn, b.data(), kn, 0.0f, c.data(), kn, threads,
                      tuning);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * m * kn * kn * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}

void BM_SgemmSmallRepeat(benchmark::State& state, kernels::Variant variant) {
  // The hot regime of the thread-count selector: the same small GEMM called
  // back to back (256^3 here). Per-call packing allocations and fork/join
  // wakeups are a constant tax on every rep, which is exactly what the
  // PackArena slabs and the pool's spin-then-sleep waits remove.
  const int dim = 256;
  AlignedBuffer<float> a(static_cast<std::size_t>(dim) * dim);
  AlignedBuffer<float> b(static_cast<std::size_t>(dim) * dim);
  AlignedBuffer<float> c(static_cast<std::size_t>(dim) * dim);
  fill_random(a, 7);
  fill_random(b, 8);
  const auto tuning = tuning_for(variant);
  for (auto _ : state) {
    blas::gemm<float>(blas::Trans::kNo, blas::Trans::kNo, dim, dim, dim, 1.0f,
                      a.data(), dim, b.data(), dim, 0.0f, c.data(), dim, 0,
                      tuning);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * dim * dim * dim * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}

/// Best-of-N per-call seconds for one variant at dim^3 fp32, one thread.
double best_seconds(kernels::Variant variant, int dim, int reps,
                    const AlignedBuffer<float>& a,
                    const AlignedBuffer<float>& b, AlignedBuffer<float>& c) {
  const auto tuning = tuning_for(variant);
  double best = 1e30;
  for (int r = 0; r < reps + 1; ++r) {  // first call warms pool + arena
    const auto t0 = std::chrono::steady_clock::now();
    blas::gemm<float>(blas::Trans::kNo, blas::Trans::kNo, dim, dim, dim, 1.0f,
                      a.data(), dim, b.data(), dim, 0.0f, c.data(), dim, 1,
                      tuning);
    const auto t1 = std::chrono::steady_clock::now();
    if (r > 0) {
      best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    }
  }
  return best;
}

void BM_KernelTierRatio1024(benchmark::State& state) {
  // The headline kernel-tier number: avx512 vs avx2 at 1024^3 fp32 on one
  // thread (so threading does not enter the ratio), recorded into
  // BENCH_gemm_kernel.json as counters so the perf trajectory keeps the
  // ratio, not just the two absolute rates.
  const int dim = 1024;
  AlignedBuffer<float> a(static_cast<std::size_t>(dim) * dim);
  AlignedBuffer<float> b(static_cast<std::size_t>(dim) * dim);
  AlignedBuffer<float> c(static_cast<std::size_t>(dim) * dim);
  fill_random(a, 9);
  fill_random(b, 10);
  const double flops = 2.0 * dim * dim * dim;
  double avx2 = 0.0, avx512 = 0.0;
  for (auto _ : state) {
    avx2 = flops / best_seconds(kernels::Variant::kAvx2, dim, 3, a, b, c) /
           1e9;
    avx512 =
        flops / best_seconds(kernels::Variant::kAvx512, dim, 3, a, b, c) /
        1e9;
  }
  state.counters["GFLOPS_avx2"] = avx2;
  state.counters["GFLOPS_avx512"] = avx512;
  state.counters["ratio"] = avx512 / avx2;
}

void BM_PackComputeOverlap(benchmark::State& state, bool ragged) {
  // The pack-pipeline regime: mid sizes where B-pack time is a real
  // fraction of runtime. `ragged` offsets m off the MC grid (dim + 13) so
  // the tail tiles exist and the steal counters must move; square keeps the
  // canonical dims. Counters come from the process-wide PipelineStats:
  // pack_fraction is packing's share of the measured pack+compute wall time
  // (overlap drives it toward the pack/compute bandwidth ratio instead of
  // the serial-schedule sum), steals/tiles/panels are schedule-shape
  // counts. Timing is enabled only for this bench, so the other regimes
  // never pay the two clock reads per tile.
  const auto dim = static_cast<int>(state.range(0));
  const int m = ragged ? dim + 13 : dim;
  AlignedBuffer<float> a(static_cast<std::size_t>(m) * dim);
  AlignedBuffer<float> b(static_cast<std::size_t>(dim) * dim);
  AlignedBuffer<float> c(static_cast<std::size_t>(m) * dim);
  fill_random(a, 13);
  fill_random(b, 14);
  const auto tuning = tuning_for(kernels::Variant::kAuto);
  auto& stats = blas::detail::pipeline_stats();
  stats.timing_enabled.store(true, std::memory_order_relaxed);
  stats.reset();
  for (auto _ : state) {
    blas::gemm<float>(blas::Trans::kNo, blas::Trans::kNo, m, dim, dim, 1.0f,
                      a.data(), dim, b.data(), dim, 0.0f, c.data(), dim, 0,
                      tuning);
    benchmark::DoNotOptimize(c.data());
  }
  stats.timing_enabled.store(false, std::memory_order_relaxed);
  const auto pack_ns =
      static_cast<double>(stats.pack_ns.load(std::memory_order_relaxed));
  const auto compute_ns =
      static_cast<double>(stats.compute_ns.load(std::memory_order_relaxed));
  state.counters["pack_fraction"] =
      pack_ns / std::max(1.0, pack_ns + compute_ns);
  state.counters["steals"] =
      static_cast<double>(stats.steals.load(std::memory_order_relaxed));
  state.counters["tiles"] =
      static_cast<double>(stats.tiles.load(std::memory_order_relaxed));
  state.counters["panels"] =
      static_cast<double>(stats.panels.load(std::memory_order_relaxed));
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * m * dim * dim * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}

void BM_DgemmSquare(benchmark::State& state, kernels::Variant variant) {
  const auto dim = static_cast<int>(state.range(0));
  AlignedBuffer<double> a(static_cast<std::size_t>(dim) * dim);
  AlignedBuffer<double> b(static_cast<std::size_t>(dim) * dim);
  AlignedBuffer<double> c(static_cast<std::size_t>(dim) * dim);
  fill_random(a, 5);
  fill_random(b, 6);
  const auto tuning = tuning_for(variant);
  for (auto _ : state) {
    blas::gemm<double>(blas::Trans::kNo, blas::Trans::kNo, dim, dim, dim, 1.0,
                       a.data(), dim, b.data(), dim, 0.0, c.data(), dim, 0,
                       tuning);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * dim * dim * dim * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}

template <typename T>
void BM_TrsmDiagSolve(benchmark::State& state, kernels::Variant variant) {
  // Every diagonal block a forward trsm of this (n, m) solves, at the nb
  // trsm resolves for the variant's default blocking, without the trailing
  // GEMM updates between them. A is the identity, so repeated in-place
  // solves leave B unchanged (no drift toward denormals) while running the
  // same instructions over the same memory as any other triangle.
  const auto n = static_cast<int>(state.range(0));
  const auto m = static_cast<int>(state.range(1));
  const auto& ks = kernels::kernel_set<T>(variant);
  const int nb = std::clamp(ks.kc / 4, 16, 256);
  AlignedBuffer<T> a(static_cast<std::size_t>(n) * n);
  AlignedBuffer<T> b(static_cast<std::size_t>(n) * m);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = T(0);
  for (int i = 0; i < n; ++i) a[static_cast<std::size_t>(i) * n + i] = T(1);
  fill_random(b, 15);
  double flops = 0.0;
  for (int j0 = 0; j0 < n; j0 += nb) {
    const int rows = std::min(nb, n - j0);
    flops += static_cast<double>(rows) * rows * m;
  }
  for (auto _ : state) {
    for (int j0 = 0; j0 < n; j0 += nb) {
      ks.trsm_solve(/*forward=*/true, /*unit_diag=*/false, j0,
                    std::min(j0 + nb, n), m, a.data(), n, 1, b.data(), m);
    }
    benchmark::DoNotOptimize(b.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      flops * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}

#if defined(__x86_64__) || defined(__i386__)
// Pure-FMA throughput loops, one per SIMD tier: independent register-
// resident chains take one FMA each per iteration and nothing else, so the
// loop runs at the tier's FMA-port limit. Each tier runs as many chains as
// fit its register file with room to spare (24 of 32 zmm, 12 of 16 ymm);
// both counts cover two FMA ports x 4-cycle latency. The result folds in
// every chain, so no chain can be discarded.
constexpr int kFmaChains512 = 24;
constexpr int kFmaChains256 = 12;

#define ADSALA_AVX512 __attribute__((target("avx512f"), always_inline)) inline
ADSALA_AVX512 __m512 splat512(float x) { return _mm512_set1_ps(x); }
ADSALA_AVX512 __m512d splat512(double x) { return _mm512_set1_pd(x); }
ADSALA_AVX512 __m512 fma512(__m512 a, __m512 b, __m512 c) {
  return _mm512_fmadd_ps(a, b, c);
}
ADSALA_AVX512 __m512d fma512(__m512d a, __m512d b, __m512d c) {
  return _mm512_fmadd_pd(a, b, c);
}
ADSALA_AVX512 double lane0(__m512 v) { return _mm512_cvtss_f32(v); }
ADSALA_AVX512 double lane0(__m512d v) { return _mm512_cvtsd_f64(v); }
#undef ADSALA_AVX512

#define ADSALA_AVX2 __attribute__((target("avx2,fma"), always_inline)) inline
ADSALA_AVX2 __m256 splat256(float x) { return _mm256_set1_ps(x); }
ADSALA_AVX2 __m256d splat256(double x) { return _mm256_set1_pd(x); }
ADSALA_AVX2 __m256 fma256(__m256 a, __m256 b, __m256 c) {
  return _mm256_fmadd_ps(a, b, c);
}
ADSALA_AVX2 __m256d fma256(__m256d a, __m256d b, __m256d c) {
  return _mm256_fmadd_pd(a, b, c);
}
ADSALA_AVX2 double lane0(__m256 v) { return _mm256_cvtss_f32(v); }
ADSALA_AVX2 double lane0(__m256d v) { return _mm256_cvtsd_f64(v); }
#undef ADSALA_AVX2

template <typename T>
__attribute__((target("avx512f"))) double fma_chains_avx512(long iters) {
  using Vec = decltype(splat512(T()));
  Vec x[kFmaChains512];
  for (auto& v : x) v = splat512(T(1));
  const Vec mul = splat512(T(0.999999));
  const Vec add = splat512(T(1e-7));
  for (long it = 0; it < iters; ++it) {
#pragma GCC unroll 24
    for (auto& v : x) v = fma512(v, mul, add);
  }
  double sum = 0.0;
  for (const auto& v : x) sum += lane0(v);
  return sum;
}

template <typename T>
__attribute__((target("avx2,fma"))) double fma_chains_avx2(long iters) {
  using Vec = decltype(splat256(T()));
  Vec x[kFmaChains256];
  for (auto& v : x) v = splat256(T(1));
  const Vec mul = splat256(T(0.999999));
  const Vec add = splat256(T(1e-7));
  for (long it = 0; it < iters; ++it) {
#pragma GCC unroll 12
    for (auto& v : x) v = fma256(v, mul, add);
  }
  double sum = 0.0;
  for (const auto& v : x) sum += lane0(v);
  return sum;
}

/// Runs `iters` iterations of the tier's pure-FMA loop for T.
template <typename T>
double fma_chains(kernels::Variant variant, long iters) {
  return variant == kernels::Variant::kAvx512 ? fma_chains_avx512<T>(iters)
                                              : fma_chains_avx2<T>(iters);
}

template <typename T>
void BM_MicroKernel(benchmark::State& state, kernels::Variant variant) {
  // One tier's full micro-kernel on cache-resident packed panels at
  // kc = 256 (A: MR x 256, B: 256 x NR, C: one MR x NR tile), called back
  // to back: the kernel's own throughput, with no packing, blocking or
  // threading around it. A, B and C sit back to back in one buffer, as
  // in a packing arena: the avx512 fp32 set (47.75 KiB) then just fits a
  // 48 KiB L1d, where separately allocated panels conflict-missed and cost
  // the kernel up to 25 % of its rate. The fp64 set (61.75 KiB) streams
  // part of B from L2 under the kernel's prefetch. alpha is tiny so the
  // repeated C += alpha * A * B cannot drift toward overflow.
  //
  // Each iteration times the kernel calls and then the same tier's pure-FMA
  // loop making as many vector FMAs, separately: both run at the same
  // clock, so frac_of_peak does not swing with the host's frequency.
  const auto& ks = kernels::kernel_set<T>(variant);
  const int kc = 256;
  const int calls_per_iter = 16;
  const bool wide = variant == kernels::Variant::kAvx512;
  const int lanes = (wide ? 64 : 32) / static_cast<int>(sizeof(T));
  const int chains = wide ? kFmaChains512 : kFmaChains256;
  const long peak_iters =
      static_cast<long>(ks.mr) * (ks.nr / lanes) * kc * calls_per_iter /
      chains;
  const std::size_t a_size = static_cast<std::size_t>(ks.mr) * kc;
  const std::size_t b_size = static_cast<std::size_t>(ks.nr) * kc;
  AlignedBuffer<T> panels(a_size + b_size +
                          static_cast<std::size_t>(ks.mr) * ks.nr);
  fill_random(panels, 20);
  const T* a = panels.data();
  const T* b = a + a_size;
  T* c = panels.data() + a_size + b_size;
  double kernel_s = 0.0;
  double peak_s = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < calls_per_iter; ++r) {
      ks.full(kc, T(1e-6), a, b, c, ks.nr);
    }
    benchmark::DoNotOptimize(c);
    benchmark::ClobberMemory();
    const auto t1 = std::chrono::steady_clock::now();
    double sink = fma_chains<T>(variant, peak_iters);
    benchmark::DoNotOptimize(sink);
    const auto t2 = std::chrono::steady_clock::now();
    kernel_s += std::chrono::duration<double>(t1 - t0).count();
    peak_s += std::chrono::duration<double>(t2 - t1).count();
  }
  const double iters = static_cast<double>(state.iterations());
  const double gflops =
      2.0 * ks.mr * ks.nr * kc * calls_per_iter * iters / kernel_s / 1e9;
  const double peak =
      2.0 * lanes * chains * static_cast<double>(peak_iters) * iters /
      peak_s / 1e9;
  state.counters["GFLOPS"] = gflops;
  state.counters["peak_GFLOPS"] = peak;
  state.counters["frac_of_peak"] = gflops / peak;
}
#endif

/// Element-wise check of one variant against the naive reference at a size
/// where plain 1e-4 / 1e-10 absolute tolerances are meaningful for the
/// accumulation length (k = 256).
template <typename T>
bool verify_variant(kernels::Variant variant, double tol) {
  const int dim = 256;
  AlignedBuffer<T> a(static_cast<std::size_t>(dim) * dim);
  AlignedBuffer<T> b(static_cast<std::size_t>(dim) * dim);
  AlignedBuffer<T> c(static_cast<std::size_t>(dim) * dim);
  AlignedBuffer<T> c_ref(static_cast<std::size_t>(dim) * dim);
  fill_random(a, 11);
  fill_random(b, 12);
  blas::gemm<T>(blas::Trans::kNo, blas::Trans::kNo, dim, dim, dim, T(1),
                a.data(), dim, b.data(), dim, T(0), c.data(), dim, 0,
                tuning_for(variant));
  blas::reference_gemm<T>(blas::Trans::kNo, blas::Trans::kNo, dim, dim, dim,
                          T(1), a.data(), dim, b.data(), dim, T(0),
                          c_ref.data(), dim);
  double max_err = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    const double err = std::abs(static_cast<double>(c[i]) -
                                static_cast<double>(c_ref[i]));
    if (err > max_err) max_err = err;
  }
  const bool ok = max_err <= tol;
  std::fprintf(stderr, "[verify] %-7s %s  m=n=k=%d  max|err|=%.3e  (tol %g) %s\n",
               kernels::variant_name(variant),
               sizeof(T) == 4 ? "fp32" : "fp64", dim, max_err, tol,
               ok ? "OK" : "FAIL");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  // Provenance context, mirroring BenchJson's envelope stamps: bench_diff
  // refuses debug-built or high-load baselines (tools/bench_diff.cpp).
#ifdef NDEBUG
  benchmark::AddCustomContext("build_type", "release");
#else
  benchmark::AddCustomContext("build_type", "debug");
#endif
  {
    double load[1] = {-1.0};
    if (getloadavg(load, 1) != 1) load[0] = -1.0;
    benchmark::AddCustomContext("load_avg_1min", std::to_string(load[0]));
  }

  bool ok = true;
  for (const auto variant : kernels::supported_variants()) {
    ok &= verify_variant<float>(variant, 1e-4);
    ok &= verify_variant<double>(variant, 1e-10);
  }
  if (!ok) {
    std::fprintf(stderr, "[verify] kernel variant mismatch; not benching\n");
    return 1;
  }

  for (const auto variant : kernels::supported_variants()) {
    const std::string suffix = kernels::variant_name(variant);
    benchmark::RegisterBenchmark(("BM_SgemmSquare/" + suffix).c_str(),
                                 BM_SgemmSquare, variant)
        ->ArgsProduct({{128, 512, 1024}, {1, 4, 0 /* all */}})
        // 16^3 at p = 1: the macro-loop's fixed per-call cost, not GFLOPS.
        ->Args({16, 1})
        ->Unit(benchmark::kMicrosecond);
    // p = 1 SYMM and TRMM beside the p = 1 GEMM rows: the single-thread
    // path of the shared macro-loop for the other two ops that run it.
    benchmark::RegisterBenchmark(("BM_SsymmSquare/" + suffix).c_str(),
                                 BM_SsymmSquare, variant)
        ->ArgsProduct({{64, 256}, {1}})
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(("BM_StrmmSquare/" + suffix).c_str(),
                                 BM_StrmmSquare, variant)
        ->ArgsProduct({{64, 256}, {1}})
        ->Unit(benchmark::kMicrosecond);
    // SYRK on the shared macro-loop: square n = k, skinny n (64 x 8000,
    // where op(A)^T is most of the traffic) and wide n (1500 x 64), each
    // at p = 1 and p = max.
    auto* syrk = benchmark::RegisterBenchmark(
        ("BM_SsyrkSquare/" + suffix).c_str(), BM_SsyrkSquare, variant);
    for (const auto& [n, k] : {std::pair{64, 64}, std::pair{200, 200},
                               std::pair{1000, 1000}, std::pair{64, 8000},
                               std::pair{1500, 64}}) {
      syrk->Args({n, k, 1})->Args({n, k, 0 /* all */});
    }
    syrk->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(("BM_SgemmSkinny/" + suffix).c_str(),
                                 BM_SgemmSkinny, variant)
        ->ArgsProduct({{512, 2048}, {1, 4, 0}})
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(("BM_DgemmSquare/" + suffix).c_str(),
                                 BM_DgemmSquare, variant)
        ->Arg(512)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(("BM_SgemmSmallRepeat/" + suffix).c_str(),
                                 BM_SgemmSmallRepeat, variant)
        ->Unit(benchmark::kMicrosecond)
        ->MinTime(0.5);
    // Two paper_mix-sized TRSM shapes whose time is mostly the diagonal
    // solve (n <= 2 nb, m ~ 12k), plus one small square solve.
    const std::string trsm_name = "BM_TrsmDiagSolve/" + suffix;
    benchmark::RegisterBenchmark((trsm_name + "/f64").c_str(),
                                 BM_TrsmDiagSolve<double>, variant)
        ->Args({125, 13001})
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark((trsm_name + "/f32").c_str(),
                                 BM_TrsmDiagSolve<float>, variant)
        ->Args({223, 12004})
        ->Args({100, 100})
        ->Unit(benchmark::kMicrosecond);
  }
#if defined(__x86_64__) || defined(__i386__)
  for (const auto variant : kernels::supported_variants()) {
    if (variant == kernels::Variant::kGeneric) continue;
    const std::string name =
        std::string("BM_MicroKernel/") + kernels::variant_name(variant);
    benchmark::RegisterBenchmark((name + "/f32").c_str(),
                                 BM_MicroKernel<float>, variant);
    benchmark::RegisterBenchmark((name + "/f64").c_str(),
                                 BM_MicroKernel<double>, variant);
  }
#endif
  if (kernels::cpu_supports_avx512()) {
    benchmark::RegisterBenchmark("BM_KernelTierRatio1024",
                                 BM_KernelTierRatio1024)
        ->Unit(benchmark::kSecond)
        ->Iterations(1);
  }
  // Pack-pipeline regimes (active variant, max threads): square and ragged
  // (m = dim + 13, off the MC grid) at the tuner's mid sizes.
  benchmark::RegisterBenchmark("BM_PackComputeOverlap/square",
                               BM_PackComputeOverlap, false)
      ->Arg(512)->Arg(1024)->Arg(2048)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("BM_PackComputeOverlap/ragged",
                               BM_PackComputeOverlap, true)
      ->Arg(512)->Arg(1024)->Arg(2048)
      ->Unit(benchmark::kMicrosecond);

  // Console output for humans plus BENCH_gemm_kernel.json for the perf
  // trajectory (same convention as the BenchJson figure benches). An
  // explicit --benchmark_out on the command line wins.
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).starts_with("--benchmark_out=")) {
      has_out = true;
    }
  }
  if (!has_out) {
    std::string json_dir = ".";
    if (const char* env = std::getenv("ADSALA_BENCH_JSON_DIR")) json_dir = env;
    out_flag = "--benchmark_out=" + json_dir + "/BENCH_gemm_kernel.json";
    args.push_back(out_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
