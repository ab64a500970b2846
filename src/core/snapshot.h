// Immutable serving state — one generation of the tuning-as-a-service
// query path.
//
// A ServingSnapshot freezes everything a select_threads query needs (model,
// fitted pipeline, thread grid, fallback machine model, memo cache) into one
// object that is never mutated after publication. AdsalaGemm publishes the
// current generation through a single std::atomic pointer, so the hot path
// is one acquire load plus the snapshot's own lock-free memo probe — no
// mutex anywhere. A retrain hot-swaps a *new* snapshot in (version bump);
// in-flight queries keep reading the old one, which stays alive for the
// runtime's lifetime (generations are retained by the publisher, so readers
// need no hazard pointers and no reference-count traffic per query).
//
// The memo cache lives inside the snapshot: a fixed-capacity direct-mapped
// table whose entries pack the full (op, m, k, n, elem) key AND the answer
// into one 64-bit word, so a single relaxed/acquire load can never observe
// a torn key/value pairing. Capacity is a compile-time constant — the cache
// cannot grow under adversarial shape streams — and a fresh snapshot starts
// empty (clear-on-swap), so a stale generation's decisions never leak into
// the next model's answers.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "blas/op.h"
#include "ml/model.h"
#include "preprocess/pipeline.h"
#include "simarch/machine_model.h"

namespace adsala::core {

/// How a select_threads answer was produced — the fail-safe serving ladder
/// (docs/OPERATIONS.md, "Failure modes and degraded serving"):
///   kModelServed        the trained model answered for this op first-class
///   kGemmProxy          the model answered, but through the equivalent-GEMM
///                       proxy (op postdates the artefact's schema)
///   kHeuristicFallback  no usable artefacts; a built-in analytic occupancy
///                       rule (simarch::MachineModel literals) answered
enum class ServingMode { kModelServed, kGemmProxy, kHeuristicFallback };

/// Stable name for logs/CLI: "model", "gemm_proxy", "heuristic".
const char* serving_mode_name(ServingMode mode);

/// Bounded lock-free decision memo (paper SS III-C generalised from "the
/// last decision" to a small direct-mapped cache). One entry is one atomic
/// 64-bit word holding key and answer together:
///
///   bit 63      valid (so a zeroed slot can never match)
///   bits 62..60 op code (blas/op.h, 3 bits)
///   bits 59..58 element-size code (1 = 4 bytes, 2 = 8 bytes)
///   bits 57..42 m   (16 bits)
///   bits 41..26 k   (16 bits)
///   bits 25..10 n   (16 bits)
///   bits  9..0  selected thread count (10 bits)
///
/// Queries outside the packable range (a dimension above 65535, a thread
/// count above 1023, an exotic element size) simply bypass the cache and
/// recompute — the cache is an accelerator, never a correctness dependency.
class MemoCache {
 public:
  static constexpr std::size_t kSlots = 256;
  static constexpr std::uint64_t kThreadsMask = 0x3FFu;

  MemoCache() {
    for (auto& slot : slots_) slot.store(0, std::memory_order_relaxed);
  }

  /// Packs a query key (threads bits zero). Returns 0 when unpackable.
  static std::uint64_t pack_key(blas::OpKind op, long m, long k, long n,
                                int elem_bytes);

  /// True on hit; *threads receives the cached decision.
  bool lookup(std::uint64_t key, int* threads) const {
    const std::uint64_t entry =
        slots_[slot_of(key)].load(std::memory_order_acquire);
    if ((entry & ~kThreadsMask) != key) return false;
    *threads = static_cast<int>(entry & kThreadsMask);
    return true;
  }

  /// Publishes a decision (no-op when the thread count is unpackable).
  void insert(std::uint64_t key, int threads) const {
    const auto t = static_cast<std::uint64_t>(threads);
    if (t == 0 || t > kThreadsMask) return;
    slots_[slot_of(key)].store(key | t, std::memory_order_release);
  }

 private:
  static std::size_t slot_of(std::uint64_t key) {
    // splitmix64 finaliser — cheap, well-distributed over the packed bits.
    key ^= key >> 30;
    key *= 0xbf58476d1ce4e5b9ull;
    key ^= key >> 27;
    key *= 0x94d049bb133111ebull;
    key ^= key >> 31;
    return static_cast<std::size_t>(key) % kSlots;
  }

  /// mutable: the cache is the one part of a snapshot that changes after
  /// publication, and it does so only through single-word atomics.
  mutable std::array<std::atomic<std::uint64_t>, kSlots> slots_;
};

static_assert(sizeof(MemoCache) == MemoCache::kSlots * sizeof(std::uint64_t),
              "memo footprint is pinned: kSlots words, nothing else");

struct GridEvaluator;  // core/trainer.h

/// One immutable generation of serving state. Everything is set before
/// publication and never written again (the memo's atomics excepted).
struct ServingSnapshot {
  std::uint64_t version = 0;  ///< monotonically bumped per install()

  /// Trained model; null exactly in heuristic-fallback mode. Shared so a
  /// hot-swap that only re-stamps metadata does not deep-copy the model.
  std::shared_ptr<const ml::Regressor> model;
  preprocess::Pipeline pipeline;
  /// Analytic stand-in; non-null exactly in heuristic mode.
  std::shared_ptr<const simarch::MachineModel> fallback_model;
  std::vector<int> thread_grid;
  int max_threads = 0;
  std::string platform;
  std::string model_name;

  /// Scores the thread grid on a memo miss (core/trainer.h). Built once
  /// when the model is loaded, attached or trained, and shared by every
  /// generation installed from this one. Null exactly in heuristic mode.
  std::shared_ptr<const GridEvaluator> evaluator;

  MemoCache memo;

  /// The serving ladder rung this snapshot answers `op` from.
  ServingMode mode_for(blas::OpKind op) const;

  /// True when an op_* one-hot column survived preprocessing into the
  /// model input (see AdsalaGemm::op_aware).
  bool op_aware() const;

  /// Memoised thread selection against this generation. Lock-free: at most
  /// two atomic word operations around a const model evaluation.
  int select_threads(blas::OpKind op, long m, long k, long n,
                     int elem_bytes) const;
};

}  // namespace adsala::core
