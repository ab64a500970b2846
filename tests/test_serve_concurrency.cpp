// Concurrency battery for the snapshot serving path (ISSUE 7).
//
// The contract under test: select_threads/query take NO mutex — readers go
// through one atomic snapshot pointer plus a single-word atomic memo — and
// install() hot-swaps generations under them without torn reads, stale-rung
// answers, or leaked stale memo decisions. This binary runs in the TSan CI
// leg, so every assertion here doubles as a data-race proof.
//
// The battery also pins the two behavioural guarantees the lock-free
// refactor must not bend: (a) snapshot serving is BIT-IDENTICAL to the
// direct model argmin the pre-refactor mutex path computed, and (b) the
// memo cache is capacity-bounded — adversarial shape streams cannot grow
// the footprint.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "blas/op.h"
#include "common/rng.h"
#include "core/adsala.h"
#include "core/executor.h"
#include "core/gather.h"
#include "core/op_registry.h"
#include "core/snapshot.h"
#include "core/trainer.h"

namespace adsala::core {
namespace {

/// One tiny trained runtime shared by the whole binary (decision tree, no
/// tuning: fast to fit, deterministic to query).
TrainOutput tiny_train() {
  SimulatedExecutor ex(simarch::MachineModel(simarch::tiny_topology(), 42));
  GatherConfig cfg;
  cfg.n_samples = 40;
  cfg.iterations = 3;
  cfg.domain.memory_cap_bytes = 64ull * 1024 * 1024;
  cfg.domain.dim_max = 8000;
  cfg.domain.seed = 7;
  TrainOptions opts;
  opts.candidates = {"decision_tree"};
  opts.tune = false;
  return train_and_select(gather_timings(ex, cfg), opts);
}

class ServeConcurrency : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { runtime_ = new AdsalaGemm(tiny_train()); }
  static void TearDownTestSuite() {
    delete runtime_;
    runtime_ = nullptr;
  }
  static AdsalaGemm* runtime_;
};

AdsalaGemm* ServeConcurrency::runtime_ = nullptr;

// --------------------------------------------------------- hot-swap stress

TEST_F(ServeConcurrency, ReadersNeverTearWhileWriterHotSwaps) {
  // 8 reader threads hammer every op while one writer publishes 100 new
  // generations. Every reader-side Decision must be internally consistent:
  // a version the writer actually published, a rung that matches that
  // generation's capability, and a thread count on that generation's grid.
  AdsalaGemm& rt = *runtime_;
  const std::uint64_t first_version = rt.snapshot_version();
  constexpr int kReaders = 8;
  constexpr int kSwaps = 100;
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};

  const std::vector<int> grid = rt.thread_grid();  // grid survives swaps

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&rt, &go, &stop, &torn, &grid, r] {
      while (!go.load(std::memory_order_acquire)) {}
      std::uint64_t last_version = 0;
      long shape = 32 + 16 * r;
      while (!stop.load(std::memory_order_acquire)) {
        for (const blas::OpKind op : blas::all_ops()) {
          const AdsalaGemm::Decision d = rt.query(op, shape, shape, shape);
          // Version must be monotone from this reader's point of view —
          // a reader can lag the writer but never travel back in time.
          if (d.version < last_version) ++torn;
          last_version = d.version;
          // Every generation in this test serves from the model: seeing
          // the heuristic rung would mean a half-built snapshot leaked.
          if (d.mode == ServingMode::kHeuristicFallback) ++torn;
          bool on_grid = false;
          for (int g : grid) on_grid |= (g == d.threads);
          if (!on_grid) ++torn;
        }
        shape = (shape % 2048) + 17;  // keep the memo from saturating
      }
    });
  }

  go.store(true, std::memory_order_release);
  std::uint64_t version = first_version;
  for (int i = 0; i < kSwaps; ++i) {
    const std::uint64_t next = rt.install(rt.snapshot());
    EXPECT_EQ(next, version + 1) << "writer sees contiguous versions";
    version = next;
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0) << "readers observed inconsistent decisions";
  EXPECT_EQ(rt.snapshot_version(), first_version + kSwaps);
}

TEST_F(ServeConcurrency, InFlightSnapshotSurvivesSwaps) {
  // A reader that pins a generation keeps getting the OLD answers even
  // after many installs — hot-swap must never mutate a published snapshot.
  AdsalaGemm& rt = *runtime_;
  const std::shared_ptr<const ServingSnapshot> pinned = rt.snapshot();
  const std::uint64_t pinned_version = pinned->version;
  const int before = pinned->select_threads(blas::OpKind::kGemm, 384, 384,
                                            384, 4);
  for (int i = 0; i < 10; ++i) rt.install(rt.snapshot());
  EXPECT_EQ(pinned->version, pinned_version);
  EXPECT_EQ(pinned->select_threads(blas::OpKind::kGemm, 384, 384, 384, 4),
            before);
  EXPECT_GT(rt.snapshot_version(), pinned_version);
}

TEST(SnapshotRetention, EvictBelowDropsOnlyOldUnpinnedGenerations) {
  // The retention contract the continual-retuning loop leans on:
  // retained_versions grows by one per install, evict_below(v) drops
  // strictly-older generations but NEVER the active one, and a shared_ptr
  // pinned before eviction keeps its snapshot alive and answering.
  AdsalaGemm rt = AdsalaGemm::heuristic_fallback(16);
  EXPECT_EQ(rt.retained_versions(), (std::vector<std::uint64_t>{1}));

  for (int i = 0; i < 3; ++i) rt.install(rt.snapshot());
  EXPECT_EQ(rt.retained_versions(),
            (std::vector<std::uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(rt.snapshot_version(), 4u);

  const auto pinned = rt.snapshot_at(2);
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->version, 2u);
  const int pinned_answer =
      pinned->select_threads(blas::OpKind::kGemm, 512, 512, 512, 4);

  EXPECT_EQ(rt.evict_below(4), 3u);
  EXPECT_EQ(rt.retained_versions(), (std::vector<std::uint64_t>{4}));
  EXPECT_EQ(rt.snapshot_at(2), nullptr);  // evicted from the runtime...
  // ...but the caller's pin keeps it alive and unchanged.
  EXPECT_EQ(pinned->version, 2u);
  EXPECT_EQ(pinned->select_threads(blas::OpKind::kGemm, 512, 512, 512, 4),
            pinned_answer);

  // The active generation is never evicted, whatever the bound.
  EXPECT_EQ(rt.evict_below(99), 0u);
  EXPECT_EQ(rt.retained_versions(), (std::vector<std::uint64_t>{4}));
  EXPECT_EQ(rt.snapshot_version(), 4u);
  EXPECT_GE(rt.select_threads(512, 512, 512), 1);
}

// ------------------------------------------------------ differential serving

TEST_F(ServeConcurrency, SnapshotPathMatchesDirectModelArgmin) {
  // The refactor's ground truth: for every (op x shape-grid x elem) cell,
  // the lock-free snapshot path must return exactly the thread count the
  // pre-refactor mutex path computed — which was thread_grid[argmin] of the
  // model over the grid, with the registry's shape canonicalisation.
  AdsalaGemm& rt = *runtime_;
  const auto snap = rt.snapshot();
  const std::vector<long> dims = {16, 48, 96, 256, 700, 1600, 4000};
  for (const blas::OpKind op : blas::all_ops()) {
    for (long x : dims) {
      for (long y : dims) {
        for (int elem : {4, 8}) {
          const simarch::GemmShape shape =
              op_traits(op).to_shape(x, y, x, elem);
          const std::size_t best = predict_best_grid_index(
              *snap->model, snap->pipeline, shape, snap->thread_grid, op);
          const int expected = snap->thread_grid[best];
          ASSERT_EQ(rt.select_threads(op, x, y, x, elem), expected)
              << blas::op_name(op) << " " << x << "x" << y << " elem="
              << elem;
        }
      }
    }
  }
}

TEST_F(ServeConcurrency, MemoHitsAreIdenticalToMisses) {
  // Ask the same cells twice: the second pass is all memo hits and must
  // reproduce the first pass bit-for-bit.
  AdsalaGemm& rt = *runtime_;
  const std::vector<long> dims = {32, 128, 512, 2048};
  std::vector<int> first;
  for (const blas::OpKind op : blas::all_ops()) {
    for (long x : dims) {
      first.push_back(rt.select_threads(op, x, x, x));
    }
  }
  std::size_t i = 0;
  for (const blas::OpKind op : blas::all_ops()) {
    for (long x : dims) {
      EXPECT_EQ(rt.select_threads(op, x, x, x), first[i++])
          << blas::op_name(op) << " x=" << x;
    }
  }
}

TEST_F(ServeConcurrency, ElementSizeAndOpKeepSeparateMemoEntries) {
  // Regression for the memo key: float/double and different ops on the
  // same dims must never alias to one cached decision. (Equality of the
  // *answers* is allowed; what's checked is agreement with the direct
  // computation after interleaved queries.)
  AdsalaGemm& rt = *runtime_;
  const auto snap = rt.snapshot();
  auto direct = [&](blas::OpKind op, long d, int elem) {
    const simarch::GemmShape shape = op_traits(op).to_shape(d, d, d, elem);
    return snap->thread_grid[predict_best_grid_index(
        *snap->model, snap->pipeline, shape, snap->thread_grid, op)];
  };
  for (long d : {64L, 320L, 1024L}) {
    const int f4 = rt.select_threads(blas::OpKind::kGemm, d, d, d, 4);
    const int f8 = rt.select_threads(blas::OpKind::kGemm, d, d, d, 8);
    const int s4 = rt.select_threads(blas::OpKind::kSyrk, d, d, 0, 4);
    EXPECT_EQ(f4, direct(blas::OpKind::kGemm, d, 4));
    EXPECT_EQ(f8, direct(blas::OpKind::kGemm, d, 8));
    // Re-query after the interleaving: hits must still match.
    EXPECT_EQ(rt.select_threads(blas::OpKind::kGemm, d, d, d, 4), f4);
    EXPECT_EQ(rt.select_threads(blas::OpKind::kSyrk, d, d, 0, 4), s4);
  }
}

// ----------------------------------------------------------- memo discipline

TEST(MemoCache, FootprintIsPinnedAtCompileTime) {
  // The unbounded per-query memo is gone: the cache is kSlots atomic words,
  // full stop. This static_assert mirror makes the bound a test failure
  // (not just a compile failure) if someone swaps in a growable container.
  static_assert(sizeof(MemoCache) ==
                    MemoCache::kSlots * sizeof(std::uint64_t),
                "memo must stay a fixed array of atomic words");
  EXPECT_EQ(sizeof(MemoCache), 256 * 8u);
  EXPECT_EQ(sizeof(ServingSnapshot) >= sizeof(MemoCache), true);
}

TEST_F(ServeConcurrency, AdversarialShapeStreamCannotGrowTheRuntime) {
  // 100k distinct shapes through one snapshot: the direct-mapped cache
  // just evicts — no allocation, no growth — and spot-checked answers stay
  // equal to the direct computation (eviction can only cost recompute).
  AdsalaGemm& rt = *runtime_;
  const auto snap = rt.snapshot();
  for (long i = 0; i < 100000; ++i) {
    const long m = 1 + (i * 7) % 4096;
    const long k = 1 + (i * 13) % 4096;
    const long n = 1 + (i * 29) % 4096;
    const int p = snap->select_threads(blas::OpKind::kGemm, m, k, n, 4);
    ASSERT_GE(p, 1);
    if (i % 9973 == 0) {
      const simarch::GemmShape shape{m, k, n, 4};
      const std::size_t best = predict_best_grid_index(
          *snap->model, snap->pipeline, shape, snap->thread_grid,
          blas::OpKind::kGemm);
      ASSERT_EQ(p, snap->thread_grid[best]) << m << "x" << k << "x" << n;
    }
  }
}

TEST(MemoCache, OutOfRangeQueriesBypassTheCache) {
  // Dimensions beyond the 16-bit packable range must return key 0 (bypass),
  // not alias a packable query's slot.
  EXPECT_EQ(MemoCache::pack_key(blas::OpKind::kGemm, 70000, 64, 64, 4), 0u);
  EXPECT_EQ(MemoCache::pack_key(blas::OpKind::kGemm, -3, 64, 64, 4), 0u);
  EXPECT_EQ(MemoCache::pack_key(blas::OpKind::kGemm, 64, 64, 64, 3), 0u);
  const std::uint64_t key =
      MemoCache::pack_key(blas::OpKind::kGemm, 64, 64, 64, 4);
  EXPECT_NE(key, 0u);
  EXPECT_EQ(key & MemoCache::kThreadsMask, 0u) << "threads bits stay clear";
}

TEST(MemoCache, InsertThenLookupRoundTrips) {
  MemoCache cache;
  const std::uint64_t key =
      MemoCache::pack_key(blas::OpKind::kSyrk, 300, 200, 300, 8);
  int threads = -1;
  EXPECT_FALSE(cache.lookup(key, &threads));
  cache.insert(key, 12);
  ASSERT_TRUE(cache.lookup(key, &threads));
  EXPECT_EQ(threads, 12);
  // A different elem size on the same dims is a different key.
  const std::uint64_t other =
      MemoCache::pack_key(blas::OpKind::kSyrk, 300, 200, 300, 4);
  EXPECT_NE(other, key);
}

// ------------------------------------------------- cross-generation hygiene

TEST_F(ServeConcurrency, FreshGenerationStartsWithColdMemo) {
  // install() must clear-on-swap: a memo entry from generation N must not
  // answer for generation N+1. Observable via version stamping — after a
  // swap, query() reports the new version even for a shape that was hot.
  AdsalaGemm& rt = *runtime_;
  const AdsalaGemm::Decision warm = rt.query(blas::OpKind::kGemm, 777, 777,
                                             777);
  const std::uint64_t v = rt.install(rt.snapshot());
  const AdsalaGemm::Decision after = rt.query(blas::OpKind::kGemm, 777, 777,
                                              777);
  EXPECT_EQ(after.version, v);
  EXPECT_GT(after.version, warm.version);
  // Same model bytes -> same answer; it just had to be recomputed.
  EXPECT_EQ(after.threads, warm.threads);
}

TEST(ServeLifecycle, TrainInstallQueryRoundTrip) {
  // End-to-end: a fresh runtime serves version 1; a retrain-and-install
  // bumps to 2 and keeps serving grid-valid counts throughout.
  AdsalaGemm rt(tiny_train());
  EXPECT_EQ(rt.snapshot_version(), 1u);
  EXPECT_EQ(rt.serving_mode(), ServingMode::kModelServed);
  const int before = rt.select_threads(512, 512, 512);
  EXPECT_EQ(rt.install(tiny_train()), 2u);
  const int after = rt.select_threads(512, 512, 512);
  EXPECT_EQ(before, after) << "identical training data -> identical model";
  EXPECT_EQ(rt.snapshot_version(), 2u);
}

// ------------------------------------------------- leaf-mask decisions

/// The tiny platform over every op, trained with xgboost (no tuning): a
/// model the snapshot scores from its leaf-mask tables.
TrainOutput tiny_xgboost_train() {
  SimulatedExecutor ex(simarch::MachineModel(simarch::tiny_topology(), 42));
  GatherConfig cfg;
  cfg.n_samples = 40;
  cfg.iterations = 3;
  const auto ops = blas::all_ops();
  cfg.ops.assign(ops.begin(), ops.end());
  cfg.domain.memory_cap_bytes = 64ull * 1024 * 1024;
  cfg.domain.dim_max = 8000;
  cfg.domain.seed = 7;
  TrainOptions opts;
  opts.candidates = {"xgboost"};
  opts.tune = false;
  return train_and_select(gather_timings(ex, cfg), opts);
}

TEST(ServeMasks, SnapshotDecisionsEqualTheRowPathArgmin) {
  // Four threads each ask 12 500 keys of the snapshot, which scores memo
  // misses from the leaf-mask tables, and check every answer against the
  // argmin of predict_grid over the grid's rows. The keys cover every op,
  // both element sizes, and dimensions above 65535, which bypass the memo.
  AdsalaGemm rt(tiny_xgboost_train());
  const auto snap = rt.snapshot();
  ASSERT_NE(snap->evaluator, nullptr);
  ASSERT_NE(snap->evaluator->masks, nullptr)
      << snap->evaluator->rows_reason;
  constexpr int kThreads = 4;
  constexpr int kKeys = 12500;
  std::atomic<int> mismatches{0};
  std::atomic<int> unmemoised{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      Rng rng(900 + static_cast<std::uint64_t>(w));
      auto dim = [&](bool huge) {
        return huge ? rng.range(65536, 200000)
                    : static_cast<long>(
                          std::exp(rng.uniform(0.0, std::log(9000.0))));
      };
      for (int i = 0; i < kKeys; ++i) {
        const blas::OpKind op =
            blas::all_ops()[static_cast<std::size_t>(i) % blas::kNumOps];
        const int elem = (i / blas::kNumOps) % 2 == 0 ? 4 : 8;
        const bool huge = i % 16 == 0;
        const long x = dim(huge), y = dim(false), z = dim(false);
        const simarch::GemmShape shape =
            op_traits(op).to_shape(x, y, z, elem);
        if (MemoCache::pack_key(op, shape.m, shape.k, shape.n, elem) == 0) {
          ++unmemoised;
        }
        const int expected = snap->thread_grid[predict_best_grid_index(
            *snap->model, snap->pipeline, shape, snap->thread_grid, op)];
        if (rt.select_threads(op, x, y, z, elem) != expected) ++mismatches;
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(unmemoised.load(), kThreads * kKeys / 20);
}

}  // namespace
}  // namespace adsala::core
