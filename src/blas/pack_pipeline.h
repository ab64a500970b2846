// Compute/pack overlap primitives for the level-3 macro-loop
// (detail::pipelined_macro_loop in level3_common.h): a depth-2 (ping/pong)
// pack pipeline plus a stealable row-tile partition.
//
//   PackPipeline — per-buffer generation ("epoch") counters over a paired
//     B slab. While the threads compute kc-panel i out of buffer i%2, the
//     cooperative pack of panel i+1 proceeds into buffer (i+1)%2; the
//     steady-state loop has ONE synchronisation point per panel (the
//     previous panel draining). Waits are spin-then-park, consistent with
//     the ThreadPool's fork/join. A single participant packs each panel
//     just before computing it and may pass one buffer as both halves: the
//     epochs are kept per buffer slot, and no panel is packed ahead.
//
//   TileDeck — per-thread deques of MC-row tiles with an atomic cursor
//     each; a thread that drains its own deque steals from the next
//     victim's. Ragged shapes (m not a multiple of nt*mr) and the skew a
//     thread picks up from packing duty do not leave threads idle: the
//     tail tiles migrate to whoever is free.
//
// Epoch discipline (the part TSan gates in tests/test_pack_overlap.cpp):
// panels complete strictly in order, so one monotonic `panels_done` counter
// both gates packing (panel j may be packed once panel j-2 — the previous
// occupant of its buffer — is fully consumed: panels_done >= j-1) and
// gates compute (panel i may be computed once panel i-1 is fully consumed:
// panels_done >= i, because two in-flight panels would accumulate into the
// same C tiles concurrently). Per-buffer `ready` epochs count completed
// cooperative packs; the per-occupancy contribution counters are reset by
// their last incrementer strictly before the release bump the next users
// acquire, so reuse across occupancies is ordered, never racy.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>

namespace adsala::blas::detail {

/// Process-wide counters for the pipelined macro-loops, surfaced as bench
/// counters (BM_PackComputeOverlap) and test probes. Steal/tile/panel
/// counts are always maintained (one relaxed add per event, off the inner
/// loops); the pack/compute nanosecond split is only accumulated while
/// `timing_enabled` is set, so serving calls never pay two clock reads per
/// tile.
struct PipelineStats {
  std::atomic<std::uint64_t> panels{0};     ///< kc-panels fully packed
  std::atomic<std::uint64_t> tiles{0};      ///< MC-row tiles computed
  std::atomic<std::uint64_t> steals{0};     ///< tiles claimed from a victim
  std::atomic<std::uint64_t> pack_ns{0};    ///< time packing (timing only)
  std::atomic<std::uint64_t> compute_ns{0}; ///< time computing (timing only)
  std::atomic<bool> timing_enabled{false};

  void reset() {
    panels.store(0, std::memory_order_relaxed);
    tiles.store(0, std::memory_order_relaxed);
    steals.store(0, std::memory_order_relaxed);
    pack_ns.store(0, std::memory_order_relaxed);
    compute_ns.store(0, std::memory_order_relaxed);
  }
};

inline PipelineStats& pipeline_stats() {
  static PipelineStats stats;
  return stats;
}

/// Monotonic clock read for the stats' pack/compute split.
inline std::uint64_t stats_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Ping/pong pack-pipeline state for ONE op call, shared by every
/// participant of its parallel region (stack-allocated by the orchestrator;
/// the region's join fences its destruction).
class PackPipeline {
 public:
  explicit PackPipeline(std::size_t participants)
      : nt_(static_cast<int>(participants)) {}

  PackPipeline(const PackPipeline&) = delete;
  PackPipeline& operator=(const PackPipeline&) = delete;

  /// Blocks until packing panel `panel` may begin: its buffer's previous
  /// occupant (panel - 2) has been fully consumed. Panels 0 and 1 start
  /// immediately.
  void wait_buffer_free(long panel) {
    if (panel < 2) return;
    wait_panels_done(panel - 1);
  }

  /// Records one thread's pack contribution to `panel`; the last
  /// contributor publishes the buffer's new ready epoch. Contribution
  /// counters are reset by the last incrementer *before* the release bump,
  /// so the next occupancy's fetch_adds are ordered after the reset.
  void pack_contribution_done(long panel) {
    Buf& b = bufs_[panel & 1];
    if (b.pack_parts.fetch_add(1, std::memory_order_acq_rel) + 1 == nt_) {
      b.pack_parts.store(0, std::memory_order_relaxed);
      pipeline_stats().panels.fetch_add(1, std::memory_order_relaxed);
      bump(b.ready);
    }
  }

  /// Blocks until panel `panel` is computable: its buffer is fully packed
  /// for this occupancy AND the previous panel has drained (two panels in
  /// flight would accumulate into the same C tiles).
  void wait_computable(long panel) {
    const long epoch = panel / 2 + 1;
    Buf& b = bufs_[panel & 1];
    spin_then_park([&] {
      return b.ready.load(std::memory_order_acquire) >= epoch;
    });
    if (panel > 0) wait_panels_done(panel);
  }

  /// Records one thread's compute contribution to `panel`; the last
  /// contributor publishes the panel as drained (panels_done = panel + 1).
  void compute_contribution_done(long panel) {
    Buf& b = bufs_[panel & 1];
    if (b.consumed.fetch_add(1, std::memory_order_acq_rel) + 1 == nt_) {
      b.consumed.store(0, std::memory_order_relaxed);
      bump(panels_done_);
    }
  }

 private:
  struct alignas(64) Buf {
    std::atomic<long> ready{0};      ///< completed cooperative packs (epoch)
    std::atomic<int> pack_parts{0};  ///< pack contributions, current occupant
    std::atomic<int> consumed{0};    ///< compute contributions, current occupant
  };

  /// Waits until `count` panels have fully drained (panels_done >= count).
  void wait_panels_done(long count) {
    spin_then_park([&] {
      return panels_done_.load(std::memory_order_acquire) >= count;
    });
  }

  void bump(std::atomic<long>& epoch) {
    epoch.fetch_add(1, std::memory_order_release);
    // A lone participant bumps every epoch it waits on before waiting, so
    // it never parks and there is no one to wake.
    if (nt_ == 1) return;
    // Waiters past their spin budget are parked on cv_; the lock orders
    // this notify after their predicate re-check, mirroring the pool.
    std::lock_guard lock(mutex_);
    cv_.notify_all();
  }

  /// Bounded spin (the panel cadence is short at the mid sizes this
  /// pipeline targets), then park on the shared condition variable. Same
  /// budget rationale as ThreadPool::parallel_region's join.
  template <typename Pred>
  void spin_then_park(Pred&& ready) {
    constexpr int kSpinIters = 1 << 12;
    for (int i = 0; i < kSpinIters; ++i) {
      if (ready()) return;
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return ready(); });
  }

  const int nt_;
  Buf bufs_[2];
  /// Panels fully consumed by every participant; monotonic because panels
  /// complete strictly in order.
  std::atomic<long> panels_done_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
};

/// Stealable partition of the macro-loop's MC-row tiles for ONE op call.
/// Tile r covers rows [r*mc, min(rows, (r+1)*mc)); each thread owns the
/// contiguous deque [t*tiles/nt, (t+1)*tiles/nt) and claims from its front
/// through an epoch-tagged atomic cursor. A thread that drains its own
/// deque scans the victims after it (the classic steal index) and claims
/// from theirs; a successful foreign claim counts as one steal. Cursors are
/// tagged with the panel index, so re-arming the deck for the next panel is
/// lock-free: a claim for panel i against a cursor still tagged i-1 simply
/// starts that deque over — no reset step can race a late thief, because
/// compute phases are ordered (PackPipeline::wait_computable) and claims
/// only ever target the globally current panel.
class TileDeck {
 public:
  TileDeck(std::size_t participants, int tiles)
      : nt_(static_cast<int>(participants)),
        tiles_(tiles),
        stride_(static_cast<long>(tiles) + 1),
        others_(participants > 1
                    ? std::make_unique<Cursor[]>(participants - 1)
                    : nullptr) {
    // Tag every cursor with panel -1 (exactly -stride_, so the truncating
    // division below still recovers the tag): a panel-0 claim must start at
    // the deque's own lo, not at the zero-initialised cursor's "next 0".
    for (int v = 0; v < nt_; ++v) {
      cursor(v).store(-stride_, std::memory_order_relaxed);
    }
  }

  TileDeck(const TileDeck&) = delete;
  TileDeck& operator=(const TileDeck&) = delete;

  int owned_lo(int t) const {
    return static_cast<int>(static_cast<long>(t) * tiles_ / nt_);
  }
  int owned_hi(int t) const {
    return static_cast<int>(static_cast<long>(t + 1) * tiles_ / nt_);
  }

  /// Claims the next tile of `panel` for thread `t`: own deque first, then
  /// each victim's in steal order. Returns -1 when the panel's tiles are
  /// exhausted.
  int claim(int t, long panel) {
    const int own = claim_from(t, panel);
    if (own >= 0) return own;
    for (int d = 1; d < nt_; ++d) {
      const int victim = (t + d) % nt_;
      const int stolen = claim_from(victim, panel);
      if (stolen >= 0) {
        pipeline_stats().steals.fetch_add(1, std::memory_order_relaxed);
        return stolen;
      }
    }
    return -1;
  }

 private:
  /// One epoch-tagged claim attempt against thread `v`'s deque. The cursor
  /// encodes (panel, next) as panel * stride_ + next; a cursor from an
  /// earlier panel means v's deque is untouched this panel.
  int claim_from(int v, long panel) {
    const int lo = owned_lo(v);
    const int hi = owned_hi(v);
    if (lo >= hi) return -1;
    std::atomic<long>& cur = cursor(v);
    long seen = cur.load(std::memory_order_relaxed);
    while (true) {
      const long tag = seen / stride_;
      const int next = tag == panel ? static_cast<int>(seen % stride_) : lo;
      if (next >= hi) return -1;
      if (cur.compare_exchange_weak(seen, panel * stride_ + next + 1,
                                    std::memory_order_acq_rel,
                                    std::memory_order_relaxed)) {
        return next;
      }
    }
  }

  struct alignas(64) Cursor {
    std::atomic<long> value{0};
  };

  std::atomic<long>& cursor(int v) {
    return v == 0 ? first_.value : others_[v - 1].value;
  }

  const int nt_;
  const int tiles_;
  const long stride_;
  /// Thread 0's cursor lives inline, so a one-participant deck makes no
  /// heap allocation; threads 1..nt-1 get theirs from the heap.
  Cursor first_;
  std::unique_ptr<Cursor[]> others_;
};

}  // namespace adsala::blas::detail
