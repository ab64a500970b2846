// Shared driver plumbing for the five level-3 ops.
//
// Every blocked driver runs the same prologue: validate, resolve the thread
// count against the pool, serve degenerate calls with a parallel scale pass,
// resolve the cache blocking against the dispatched kernel's geometry, and
// carve packing scratch out of the PackArena. Before this header each op
// restated that sequence, and the restatements had begun to drift — GEMM's
// degenerate beta pass ran before its tuning sanitisation while SYRK's ran
// before the kernel-geometry guard, so an ordering bug fixed in one op could
// silently survive in another. The helpers pin one order for all five:
//
//   validate -> empty-output return -> resolve_threads -> degenerate scale
//   pass (k == 0 / alpha == 0) -> block_geometry -> arena carve -> macro loop
//
// The degenerate pass deliberately stays *ahead* of block_geometry: it must
// not depend on tuning fields (a beta-only call with a nonsense tuning.kc is
// still a valid BLAS call), and hoisting it here makes that invariant
// structural instead of per-file. SYRK looks its kernel set up ahead of
// resolve_threads, to cap the thread count at its MR-row micro-tiles; that
// lookup reads tuning.variant only, never a blocking field.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>

#include "blas/gemm.h"
#include "blas/kernels/kernel_set.h"
#include "blas/pack_pipeline.h"
#include "common/aligned_buffer.h"
#include "common/pack_arena.h"
#include "common/thread_pool.h"

namespace adsala::blas::detail {

/// Resolves a user thread-count request: <= 0 means the pool maximum, and
/// the result is clamped to [1, max_threads()] and (when row_cap >= 0) to
/// the number of partitionable rows. A call arriving from inside a parallel
/// region resolves to 1 outright — the pool would degrade the region to
/// serial anyway, and the partition / barrier / scratch sizing must all see
/// that as ONE thread (sizing them for p while fn(0, 1) runs would leave
/// p-1 row chunks untouched).
inline std::size_t resolve_threads(int nthreads, long row_cap = -1) {
  if (ThreadPool::in_region()) return 1;
  ThreadPool& pool = ThreadPool::global();
  std::size_t p = nthreads <= 0 ? pool.max_threads()
                                : static_cast<std::size_t>(nthreads);
  p = std::clamp<std::size_t>(p, 1, pool.max_threads());
  if (row_cap >= 0) {
    p = std::min<std::size_t>(
        p, static_cast<std::size_t>(std::max<long>(1, row_cap)));
  }
  return p;
}

/// Cache blocking resolved against the dispatched kernel: explicit positive
/// tuning fields win, zero / negative fields fall back to the kernel's
/// preferred blocking, and the result is rounded to the MR/NR geometry.
struct BlockGeom {
  int mc = 0;
  int kc = 0;
  int nc = 0;
};

template <typename T>
BlockGeom block_geometry(const kernels::KernelSet<T>& ks,
                         const GemmTuning& tuning) {
  const int mc_req = tuning.mc > 0 ? tuning.mc : ks.mc;
  const int kc_req = tuning.kc > 0 ? tuning.kc : ks.kc;
  const int nc_req = tuning.nc > 0 ? tuning.nc : ks.nc;
  BlockGeom g;
  g.mc = std::max(ks.mr, mc_req - mc_req % ks.mr);
  g.kc = std::max(1, kc_req);
  g.nc = std::max(ks.nr, nc_req - nc_req % ks.nr);
  return g;
}

/// Elements of one participant's packed-A block: full MR-row micro-panels
/// covering mc rows at depth kc.
template <typename T>
std::size_t a_panel_elems(const kernels::KernelSet<T>& ks, int mc, int kc) {
  return static_cast<std::size_t>((mc + ks.mr - 1) / ks.mr) * ks.mr * kc;
}

/// Elements of a packed-B block spanning min(nc, col_span) columns at depth
/// kc: full NR-column micro-panels. The single source of the sizing for
/// every carve below.
template <typename T>
std::size_t b_panel_elems(const kernels::KernelSet<T>& ks, int nc,
                          int col_span, int kc) {
  const int b_panels = (std::min(nc, col_span) + ks.nr - 1) / ks.nr;
  return static_cast<std::size_t>(b_panels) * kc * ks.nr;
}

/// Returns the arena's shared slab, degrading to a per-call buffer (kept
/// alive through `fallback`) when growth throws — genuine exhaustion or the
/// `arena-oom` failpoint. If even that throws, the exception-safe
/// ThreadPool rethrows on the calling thread, never std::terminate. Call
/// from the orchestrating thread before the region opens, exactly like
/// PackArena::shared_slab itself.
template <typename T>
T* shared_slab_or_fallback(std::size_t count,
                           std::shared_ptr<AlignedBuffer<T>>& fallback) {
  try {
    return PackArena::global().shared_slab<T>(count);
  } catch (const std::bad_alloc&) {
    fallback = std::make_shared<AlignedBuffer<T>>(count);
    return fallback->data();
  }
}

/// Thread-slab sibling of shared_slab_or_fallback.
template <typename T>
T* thread_slab_or_fallback(std::size_t count,
                           std::shared_ptr<AlignedBuffer<T>>& fallback) {
  try {
    return PackArena::global().thread_slab<T>(count);
  } catch (const std::bad_alloc&) {
    fallback = std::make_shared<AlignedBuffer<T>>(count);
    return fallback->data();
  }
}

/// Packing scratch of one macro-loop call, carved in ONE arena call
/// (shared_slab always returns the slab base and thread_slab may grow it,
/// so a second call would alias or invalidate the first). `lead` is
/// `lead_elems` of op-specific data placed ahead of the panels (TRMM's
/// dense copy of B); null when lead_elems == 0.
///
///   p > 1:  [lead | B ping | B pong] from the shared slab, which every
///           participant reads; each participant carves its own A block
///           from its thread slab inside the region (a_pack stays null).
///   p == 1: [lead | A | B] from the caller's thread slab, with
///           b_bufs[0] == b_bufs[1]. Calls nested in a region collapse to
///           p = 1 and run concurrently, so they must never touch the one
///           shared slab; and one participant packs each panel just before
///           computing it, so one B buffer suffices.
template <typename T>
struct LoopScratch {
  T* lead = nullptr;
  T* a_pack = nullptr;
  T* b_bufs[2] = {nullptr, nullptr};
  /// Non-null only when arena growth threw (see shared_slab_or_fallback).
  std::shared_ptr<AlignedBuffer<T>> fallback;
};

template <typename T>
LoopScratch<T> carve_loop_scratch(std::size_t p,
                                  const kernels::KernelSet<T>& ks,
                                  const BlockGeom& g, int cols,
                                  std::size_t lead_elems = 0) {
  const std::size_t lead = PackArena::padded_count<T>(lead_elems);
  const std::size_t b_elems = b_panel_elems(ks, g.nc, cols, g.kc);
  LoopScratch<T> s;
  T* base;
  if (p == 1) {
    const std::size_t a_padded =
        PackArena::padded_count<T>(a_panel_elems(ks, g.mc, g.kc));
    base = thread_slab_or_fallback<T>(lead + a_padded + b_elems, s.fallback);
    s.a_pack = base + lead;
    s.b_bufs[0] = s.b_bufs[1] = s.a_pack + a_padded;
  } else {
    const std::size_t b_padded = PackArena::padded_count<T>(b_elems);
    base = shared_slab_or_fallback<T>(lead + 2 * b_padded, s.fallback);
    s.b_bufs[0] = base + lead;
    s.b_bufs[1] = base + lead + b_padded;
  }
  if (lead_elems > 0) s.lead = base;
  return s;
}

/// The macro-kernel: multiplies one packed A block (mc_eff x kc_eff) by one
/// packed B block (kc_eff x nc_eff) into the C block at c, tiling with the
/// dispatched kernel's MR x NR geometry.
template <typename T>
void macro_kernel(const kernels::KernelSet<T>& ks, int mc_eff, int nc_eff,
                  int kc_eff, T alpha, const T* a_pack, const T* b_pack, T* c,
                  int ldc) {
  const int mr = ks.mr;
  const int nr = ks.nr;
  for (int jr = 0; jr < nc_eff; jr += nr) {
    const int cols = std::min(nr, nc_eff - jr);
    const T* b_panel = b_pack + static_cast<long>(jr / nr) * kc_eff * nr;
    for (int ir = 0; ir < mc_eff; ir += mr) {
      const int rows = std::min(mr, mc_eff - ir);
      const T* a_panel = a_pack + static_cast<long>(ir / mr) * kc_eff * mr;
      T* c_tile = c + static_cast<long>(ir) * ldc + jr;
      if (rows == mr && cols == nr) {
        ks.full(kc_eff, alpha, a_panel, b_panel, c_tile, ldc);
      } else {
        ks.edge(kc_eff, alpha, a_panel, b_panel, c_tile, ldc, rows, cols);
      }
    }
  }
}

/// The level-3 macro-loop, run by EVERY participant of a call (GEMM, SYRK,
/// SYMM and TRMM, at every thread count). Enumerates the (jc, pc) panel
/// grid in order; MC-row tiles of each panel are claimed through the
/// stealable deck. With several participants, the cooperative pack of the
/// NEXT panel proceeds into the other half of the ping/pong pair while this
/// panel is computed. With one there is nothing to overlap: each panel is
/// packed just before it is computed, into the single buffer (b_bufs[0] may
/// equal b_bufs[1]; PackPipeline keeps its epochs per buffer slot, and no
/// panel is packed ahead).
///
///   pack_chunk(jc, pc, kc_eff, q, dst)
///     packs NR-column micro-panel q (columns [jc + q*nr, ...)) of the
///     kc_eff-deep B block into dst (contiguous kc_eff * nr elements).
///   tile_op(jc, pc, nc_eff, kc_eff, first_panel_of_jc, ic, mc_eff, a_pack,
///           b_buf)
///     computes C rows [ic, ic+mc_eff) x columns [jc, jc+nc_eff) against
///     the packed B block at b_buf, packing its A block into this
///     participant's a_pack. `first_panel_of_jc` is true on the jc-block's
///     first pc iteration — where a driver folds its beta scale into the
///     tile, first-touch style, so no separate pre-scale barrier orders
///     against the stolen tiles.
///
/// The caller sizes each B buffer for the widest panel (b_panel_elems at
/// the resolved kc/nc); within a panel the packed layout is q * kc_eff * nr.
template <typename T, typename PackChunkFn, typename TileOpFn>
void pipelined_macro_loop(std::size_t tid, std::size_t nt, int rows, int cols,
                          int kdim, const BlockGeom& g, int nr,
                          T* const (&b_bufs)[2], T* a_pack, PackPipeline& pipe,
                          TileDeck& deck, PackChunkFn&& pack_chunk,
                          TileOpFn&& tile_op) {
  const int t = static_cast<int>(tid);
  const long pc_steps = (kdim + g.kc - 1) / g.kc;
  const long jc_steps = (cols + g.nc - 1) / g.nc;
  const long total_panels = jc_steps * pc_steps;
  const bool pack_ahead = nt > 1;

  PipelineStats& stats = pipeline_stats();
  const bool timed = stats.timing_enabled.load(std::memory_order_relaxed);
  std::uint64_t pack_ns = 0, compute_ns = 0, tiles_done = 0;

  // This thread's static share of one panel's cooperative pack: NR-panel
  // chunks [share_lo(q_panels), share_hi(q_panels)).
  const auto pack_share = [&](long panel) {
    const int jc = static_cast<int>(panel / pc_steps) * g.nc;
    const int pc = static_cast<int>(panel % pc_steps) * g.kc;
    const int nc_eff = std::min(g.nc, cols - jc);
    const int kc_eff = std::min(g.kc, kdim - pc);
    const int q_panels = (nc_eff + nr - 1) / nr;
    const int q_lo = static_cast<int>(static_cast<long>(t) * q_panels /
                                      static_cast<long>(nt));
    const int q_hi = static_cast<int>(static_cast<long>(t + 1) * q_panels /
                                      static_cast<long>(nt));
    pipe.wait_buffer_free(panel);
    const std::uint64_t t0 = timed ? stats_now_ns() : 0;
    T* buf = b_bufs[panel & 1];
    for (int q = q_lo; q < q_hi; ++q) {
      pack_chunk(jc, pc, kc_eff, q, buf + static_cast<long>(q) * kc_eff * nr);
    }
    if (timed) pack_ns += stats_now_ns() - t0;
    pipe.pack_contribution_done(panel);
  };

  // Pipeline prologue: panel 0 is packed cooperatively before any compute.
  if (pack_ahead) pack_share(0);

  for (long panel = 0; panel < total_panels; ++panel) {
    // Pack-ahead: panel+1 goes into the other buffer while panel computes.
    // The only steady-state wait inside pack_share is the previous panel
    // draining — one synchronisation point per panel. A lone participant
    // packs this panel now instead.
    if (!pack_ahead) {
      pack_share(panel);
    } else if (panel + 1 < total_panels) {
      pack_share(panel + 1);
    }

    pipe.wait_computable(panel);
    const int jc = static_cast<int>(panel / pc_steps) * g.nc;
    const int pc = static_cast<int>(panel % pc_steps) * g.kc;
    const int nc_eff = std::min(g.nc, cols - jc);
    const int kc_eff = std::min(g.kc, kdim - pc);
    const bool first_of_jc = pc == 0;
    const T* b_buf = b_bufs[panel & 1];
    const std::uint64_t t0 = timed ? stats_now_ns() : 0;
    for (int tile = deck.claim(t, panel); tile >= 0;
         tile = deck.claim(t, panel)) {
      const int ic = tile * g.mc;
      const int mc_eff = std::min(g.mc, rows - ic);
      tile_op(jc, pc, nc_eff, kc_eff, first_of_jc, ic, mc_eff, a_pack, b_buf);
      ++tiles_done;
    }
    if (timed) compute_ns += stats_now_ns() - t0;
    pipe.compute_contribution_done(panel);
  }

  stats.tiles.fetch_add(tiles_done, std::memory_order_relaxed);
  if (timed) {
    stats.pack_ns.fetch_add(pack_ns, std::memory_order_relaxed);
    stats.compute_ns.fetch_add(compute_ns, std::memory_order_relaxed);
  }
}

/// Runs pipelined_macro_loop on p participants over a rows x cols output
/// with inner dimension kdim, out of `scratch` (carve_loop_scratch at the
/// same p). p == 1 runs on the calling thread with the scratch's A block;
/// at p > 1 each participant of the region carves its own.
template <typename T, typename PackChunkFn, typename TileOpFn>
void run_macro_loop(std::size_t p, const kernels::KernelSet<T>& ks,
                    const BlockGeom& g, int rows, int cols, int kdim,
                    const LoopScratch<T>& scratch, PackChunkFn&& pack_chunk,
                    TileOpFn&& tile_op) {
  PackPipeline pipe(p);
  TileDeck deck(p, (rows + g.mc - 1) / g.mc);
  if (p == 1) {
    pipelined_macro_loop<T>(0, 1, rows, cols, kdim, g, ks.nr, scratch.b_bufs,
                            scratch.a_pack, pipe, deck, pack_chunk, tile_op);
    return;
  }
  const std::size_t a_pack_elems = a_panel_elems(ks, g.mc, g.kc);
  ThreadPool::global().parallel_region(p, [&](std::size_t tid,
                                               std::size_t nt) {
    std::shared_ptr<AlignedBuffer<T>> a_fallback;
    T* a_pack = thread_slab_or_fallback<T>(a_pack_elems, a_fallback);
    pipelined_macro_loop<T>(tid, nt, rows, cols, kdim, g, ks.nr,
                            scratch.b_bufs, a_pack, pipe, deck, pack_chunk,
                            tile_op);
  });
}

/// Serial `row *= factor` over rows [row_lo, row_hi) of an ncols-wide
/// row-major block: factor == 1 is a no-op, factor == 0 stores zeros
/// outright so NaNs are flushed. THE row-scaling core — the ops' in-region
/// beta passes and the parallel degenerate pass below both delegate here,
/// so the flush/no-op semantics cannot drift between the macro loop and the
/// degenerate path of the same op.
template <typename T>
void scale_rows_range(T* c, long ldc, int row_lo, int row_hi, int ncols,
                      T factor) {
  if (factor == T(1)) return;
  for (int i = row_lo; i < row_hi; ++i) {
    T* row = c + i * ldc;
    if (factor == T(0)) {
      std::fill(row, row + ncols, T(0));
    } else {
      for (int j = 0; j < ncols; ++j) row[j] *= factor;
    }
  }
}

/// Runs fn(row_lo, row_hi) over p even chunks of rows [0, nrows), one per
/// participant of a parallel region.
template <typename Fn>
void row_chunks_pass(std::size_t p, int nrows, Fn&& fn) {
  ThreadPool::global().parallel_region(
      p, [&](std::size_t tid, std::size_t nt) {
        const int chunk = static_cast<int>(
            (static_cast<std::size_t>(nrows) + nt - 1) / nt);
        const int lo = static_cast<int>(tid) * chunk;
        fn(lo, std::min(nrows, lo + chunk));
      });
}

/// Parallel `row *= factor` pass over an nrows x ncols row-major block.
/// This is the whole of a degenerate level-3 call: GEMM/SYMM with k == 0 or
/// alpha == 0 reduce to C *= beta, TRMM with alpha == 0 to B = 0, and
/// TRSM's up-front right-hand-side scaling to B *= alpha. (SYRK's
/// degenerate pass scales only its triangle over the same chunks.)
template <typename T>
void scale_rows_pass(std::size_t p, int nrows, int ncols, T factor, T* c,
                     long ldc) {
  if (nrows <= 0 || ncols <= 0 || factor == T(1)) return;
  row_chunks_pass(p, nrows, [&](int lo, int hi) {
    scale_rows_range(c, ldc, lo, hi, ncols, factor);
  });
}

}  // namespace adsala::blas::detail
