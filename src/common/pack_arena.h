// Process-wide packing-buffer arena: the zero-allocation hot path of the
// level-3 ops.
//
// Every blocked driver needs scratch for its packed A/B micro-panels (and
// TRMM a dense copy of B). Allocating that scratch per call puts an
// aligned_alloc + free on the hot path — a cost that dominates exactly the
// small/medium shapes where the ML layer's thread-count selection matters
// most (the paper's Table VII singles out data-copy overhead as a
// first-class cost). The arena replaces those per-call AlignedBuffers with
// grow-only slabs that live for the process: after the first call of a given
// shape, repeated calls perform zero heap allocations.
//
// Layout: one thread_local slab per OS thread for the packing scratch only
// that thread touches (A panels, and the whole carve of a one-participant
// call), plus one shared slab per arena for buffers every participant of
// a parallel region reads (the cooperatively packed B block, TRMM's dense
// B copy). Keying the private slabs by OS thread — not by pool slot —
// makes them race-free by construction: any number of threads, from any
// number of ThreadPool instances or none, get private storage, exactly the
// safety envelope of the per-call buffers this arena replaced. Each slab is
// a separate 64-byte aligned allocation, so neighbouring threads never
// share a cache line.
//
// Concurrency contract: serial (single-thread) BLAS calls are safe from any
// number of threads concurrently. Parallel calls inherit the ThreadPool's
// own constraint (one region at a time); the shared slab is only (re)sized
// by the orchestrating thread before the region opens. An op must carve all
// of a thread's scratch out of ONE thread_slab() call (growing the slab
// invalidates its previous pointer) — padded_count() keeps multi-buffer
// carves 64-byte aligned.
//
// NUMA placement: slab growth places the new pages at grow time, under the
// `ADSALA_NUMA` policy (read once per process):
//   firsttouch (default) — the growing thread touches every page of the new
//     slab immediately, so the OS places them on ITS node. Thread slabs are
//     grown by their owning thread and the shared slab by the orchestrator,
//     which is exactly the reader set of each.
//   node:<k> — bind the new slab's pages to NUMA node k outright. Needs
//     libnuma (CMake option ADSALA_USE_NUMA); when the library is absent or
//     the bind fails, the arena warns once on stderr and degrades to
//     first-touch. Never fails a BLAS call.
//   off — neither touch nor bind; pages fault in wherever they are first
//     used (the pre-placement behaviour).
// arena_stats() surfaces the active policy and whether a bind has succeeded.
//
// Out-of-memory: a failed slab growth throws std::bad_alloc from grow().
// The level-3 drivers catch it at the carve sites (blas/level3_common.h)
// and degrade to a per-call AlignedBuffer — the same fallback the huge-TRMM
// copy cap already used — so a BLAS call survives arena exhaustion at the
// cost of one allocation. A throw that does escape into a parallel region
// is captured by the exception-safe ThreadPool and rethrown on the calling
// thread after the join (workers never std::terminate). The `arena-oom`
// failpoint (common/failpoint.h) makes grow() throw unconditionally, which
// is how tests/test_faults.cpp proves both layers.
#pragma once

#include <atomic>
#include <cstddef>

#include "common/aligned_buffer.h"

namespace adsala {

class PackArena {
 public:
  PackArena() = default;

  PackArena(const PackArena&) = delete;
  PackArena& operator=(const PackArena&) = delete;

  /// Process-wide arena; lazily constructed.
  static PackArena& global();

  /// At least `count` Ts of 64-byte-aligned storage private to the calling
  /// OS thread (the slab is shared across arena instances and lives until
  /// thread exit). Grow-only: the slab never shrinks, and a call that fits
  /// inside it is pointer arithmetic only.
  template <typename T>
  T* thread_slab(std::size_t count) {
    return reinterpret_cast<T*>(grow(thread_slab_storage(), count * sizeof(T)));
  }

  /// Same contract for this arena's shared slab. Call only from the
  /// orchestrating thread before a parallel region opens (all participants
  /// then read the returned pointer).
  template <typename T>
  T* shared_slab(std::size_t count) {
    return reinterpret_cast<T*>(grow(shared_, count * sizeof(T)));
  }

  /// Rounds an element count up so the next carve inside one slab stays
  /// 64-byte aligned.
  template <typename T>
  static constexpr std::size_t padded_count(std::size_t count) {
    const std::size_t per_line = kCacheLineBytes / sizeof(T);
    return (count + per_line - 1) / per_line * per_line;
  }

  /// Number of slab (re)allocations this arena instance has performed.
  /// Stable across two identical calls == the second call allocated nothing
  /// (the reuse property the tests pin down).
  std::size_t growth_count() const {
    return growths_.load(std::memory_order_relaxed);
  }

  /// Current size of this arena's shared slab plus the *calling thread's*
  /// private slab, in bytes (other threads' slabs are not visible). Only
  /// meaningful while no BLAS call is in flight.
  std::size_t footprint_bytes() const;

  /// Point-in-time placement and sizing snapshot.
  struct Stats {
    std::size_t growth_count = 0;   ///< slab (re)allocations, this arena
    std::size_t shared_bytes = 0;   ///< this arena's shared slab
    std::size_t thread_bytes = 0;   ///< the *calling thread's* private slab
    const char* numa_mode = "";     ///< resolved policy: firsttouch|node|off
    int numa_node = -1;             ///< requested node (node:<k> only)
    bool numa_available = false;    ///< compiled AND runtime libnuma support
    bool numa_bound = false;        ///< at least one slab bind succeeded
  };
  Stats arena_stats() const;

 private:
  struct alignas(kCacheLineBytes) Slab {
    AlignedBuffer<unsigned char> buf;
  };

  /// The calling thread's private slab (shared across arena instances).
  static Slab& thread_slab_storage();

  void* grow(Slab& slab, std::size_t bytes);

  Slab shared_;
  std::atomic<std::size_t> growths_{0};
};

}  // namespace adsala
