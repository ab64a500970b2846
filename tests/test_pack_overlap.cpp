// Concurrency and ragged-shape coverage for the pack pipeline
// (blas/pack_pipeline.h): the ping/pong PackPipeline epochs and the
// TileDeck steal index are hammered directly from raw std::threads (the
// TSan CI leg runs this binary), and the pipelined GEMM/SYRK/SYMM/TRMM
// drivers are verified against their references on the adversarial shapes
// a static row split handles worst — tall-skinny, wide, fewer row tiles
// than threads, and a k < kc single-panel degenerate — and bit for bit
// across thread counts, including the p = 1 calls that nested regions make.
//
// The global pool is forced to 4 threads via ADSALA_THREADS before its
// first use (the static initializer below runs pre-main): on a small CI
// host every call would otherwise resolve to one thread and the pack-ahead
// and tile stealing would never engage.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "blas/gemm.h"
#include "blas/pack_pipeline.h"
#include "blas/symm.h"
#include "blas/syrk.h"
#include "blas/trmm.h"
#include "common/pack_arena.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace adsala::blas {
namespace {

// Before the lazily-constructed ThreadPool::global() first runs (no
// overwrite: an outer ADSALA_THREADS, e.g. a CI matrix entry, wins).
const bool g_pool_env = [] {
  setenv("ADSALA_THREADS", "4", /*overwrite=*/0);
  return true;
}();

template <typename T>
std::vector<T> random_matrix(std::size_t rows, std::size_t cols,
                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> out(rows * cols);
  for (auto& v : out) v = static_cast<T>(rng.uniform(-2.0, 2.0));
  return out;
}

// ------------------------------------------------------- pipeline hammer --

/// Runs the exact PackPipeline/TileDeck protocol of pipelined_macro_loop
/// from raw threads, with the "pack" writing a per-thread cell tagged with
/// the panel index and the "compute" asserting every participant's tag is
/// visible — the acquire/release edges the real loop relies on. Tile claims
/// are counted per (panel, tile); any double or missed claim fails.
void hammer_pipeline(int nt, int panels, int tiles) {
  detail::PackPipeline pipe(static_cast<std::size_t>(nt));
  detail::TileDeck deck(static_cast<std::size_t>(nt), tiles);
  // Ping/pong "buffers": one slot per participant, as the cooperative pack
  // writes disjoint chunks of the real B pair.
  std::vector<long> bufs[2];
  bufs[0].assign(nt, -1);
  bufs[1].assign(nt, -1);
  std::vector<std::atomic<int>> claims(
      static_cast<std::size_t>(panels) * tiles);
  std::atomic<int> failures{0};

  auto body = [&](int t) {
    auto pack_share = [&](long panel) {
      pipe.wait_buffer_free(panel);
      bufs[panel & 1][t] = panel;  // this thread's pack contribution
      pipe.pack_contribution_done(panel);
    };
    pack_share(0);
    for (long panel = 0; panel < panels; ++panel) {
      if (panel + 1 < panels) pack_share(panel + 1);
      pipe.wait_computable(panel);
      for (int other = 0; other < nt; ++other) {
        if (bufs[panel & 1][other] != panel) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
      for (int tile = deck.claim(t, panel); tile >= 0;
           tile = deck.claim(t, panel)) {
        claims[static_cast<std::size_t>(panel) * tiles + tile].fetch_add(
            1, std::memory_order_relaxed);
      }
      pipe.compute_contribution_done(panel);
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < nt; ++t) threads.emplace_back(body, t);
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0)
      << "a compute phase observed a stale pack contribution";
  for (int p = 0; p < panels; ++p) {
    for (int tile = 0; tile < tiles; ++tile) {
      EXPECT_EQ(claims[static_cast<std::size_t>(p) * tiles + tile].load(), 1)
          << "tile " << tile << " of panel " << p
          << " claimed the wrong number of times";
    }
  }
}

TEST(PackPipeline, HammerManyPanels) { hammer_pipeline(4, 200, 7); }

TEST(PackPipeline, HammerMoreThreadsThanTiles) { hammer_pipeline(4, 100, 2); }

TEST(PackPipeline, HammerSinglePanel) { hammer_pipeline(4, 1, 5); }

TEST(PackPipeline, HammerTwoThreads) { hammer_pipeline(2, 300, 3); }

// ------------------------------------------------------ TileDeck (serial) --

TEST(TileDeck, OneThreadDrainsEveryDequeInStealOrder) {
  detail::TileDeck deck(4, 10);
  // Ownership is the contiguous split [t*10/4, (t+1)*10/4).
  EXPECT_EQ(deck.owned_lo(0), 0);
  EXPECT_EQ(deck.owned_hi(0), 2);
  EXPECT_EQ(deck.owned_lo(3), 7);
  EXPECT_EQ(deck.owned_hi(3), 10);

  const auto steals_before =
      detail::pipeline_stats().steals.load(std::memory_order_relaxed);
  std::vector<int> order;
  for (int tile = deck.claim(0, 0); tile >= 0; tile = deck.claim(0, 0)) {
    order.push_back(tile);
  }
  // Own deque front-to-back, then each victim's in steal order.
  const std::vector<int> expect = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(order, expect);
  // The 8 foreign claims counted as steals (deterministic: single caller).
  EXPECT_EQ(detail::pipeline_stats().steals.load(std::memory_order_relaxed) -
                steals_before,
            8u);
  EXPECT_EQ(deck.claim(0, 0), -1);
}

TEST(TileDeck, EpochReArmsWithoutReset) {
  detail::TileDeck deck(2, 4);
  // Drain panel 0 entirely from thread 1.
  int count = 0;
  while (deck.claim(1, 0) >= 0) ++count;
  EXPECT_EQ(count, 4);
  // Panel 1 starts over lock-free: stale panel-0 cursors re-arm on claim.
  std::vector<int> order;
  for (int tile = deck.claim(0, 1); tile >= 0; tile = deck.claim(0, 1)) {
    order.push_back(tile);
  }
  const std::vector<int> expect = {0, 1, 2, 3};
  EXPECT_EQ(order, expect);
}

TEST(TileDeck, EmptyOwnDequeStealsImmediately) {
  // 2 tiles across 4 threads: the rounding split gives ranges
  // [0,0), [0,1), [1,1), [1,2) — threads 0 and 2 own nothing and must steal
  // their first claim. Deterministic because the deck is drained serially.
  detail::TileDeck deck(4, 2);
  EXPECT_EQ(deck.owned_lo(0), 0);
  EXPECT_EQ(deck.owned_hi(0), 0);  // empty
  const int first = deck.claim(0, 0);
  EXPECT_GE(first, 0);  // stolen from a victim
  const int second = deck.claim(0, 0);
  EXPECT_GE(second, 0);
  EXPECT_NE(first, second);
  EXPECT_EQ(deck.claim(0, 0), -1);
}

// --------------------------------------------------- ragged-shape corpus --

struct RaggedShape {
  int m, n, k;
  const char* why;
};

// The shapes the static panels_per_thread split handled worst. kc defaults
// to 256/384 depending on kernel, so k = 7 is a single sub-kc panel; with
// the 4-thread pool, m = 8 is fewer row tiles than threads for every mr.
const RaggedShape kRaggedCorpus[] = {
    {8191, 64, 128, "tall-skinny, m off the MC grid"},
    {64, 8191, 128, "wide, nc-panel heavy"},
    {8, 512, 64, "fewer row tiles than threads"},
    {300, 300, 7, "k < kc single-panel degenerate"},
};

template <typename T>
void expect_ragged_gemm_matches(Trans ta, Trans tb, const RaggedShape& s) {
  const int a_rows = ta == Trans::kNo ? s.m : s.k;
  const int a_cols = ta == Trans::kNo ? s.k : s.m;
  const int b_rows = tb == Trans::kNo ? s.k : s.n;
  const int b_cols = tb == Trans::kNo ? s.n : s.k;
  const auto a = random_matrix<T>(a_rows, a_cols, 11);
  const auto b = random_matrix<T>(b_rows, b_cols, 12);
  auto c = random_matrix<T>(s.m, s.n, 13);
  auto c_ref = c;

  gemm<T>(ta, tb, s.m, s.n, s.k, T(1.25), a.data(), a_cols, b.data(), b_cols,
          T(-0.5), c.data(), s.n, 0);
  reference_gemm<T>(ta, tb, s.m, s.n, s.k, T(1.25), a.data(), a_cols,
                    b.data(), b_cols, T(-0.5), c_ref.data(), s.n);

  const double tol =
      (std::is_same_v<T, float> ? 1e-4 : 1e-11) * std::max(1, s.k);
  for (long i = 0; i < static_cast<long>(s.m) * s.n; ++i) {
    ASSERT_NEAR(static_cast<double>(c[i]), static_cast<double>(c_ref[i]), tol)
        << s.why << ": mismatch at linear index " << i;
  }
}

TEST(RaggedShapes, GemmAllTransCombosFloat) {
  for (const auto& s : kRaggedCorpus) {
    for (const Trans ta : {Trans::kNo, Trans::kYes}) {
      for (const Trans tb : {Trans::kNo, Trans::kYes}) {
        expect_ragged_gemm_matches<float>(ta, tb, s);
      }
    }
  }
}

TEST(RaggedShapes, GemmAllTransCombosDouble) {
  for (const auto& s : kRaggedCorpus) {
    for (const Trans ta : {Trans::kNo, Trans::kYes}) {
      for (const Trans tb : {Trans::kNo, Trans::kYes}) {
        expect_ragged_gemm_matches<double>(ta, tb, s);
      }
    }
  }
}

/// memcmp-compares run(nthreads) for nthreads 1-4, three runs each, against
/// one p = 1 run. `run` returns the op's output matrix.
template <typename Run>
void expect_bit_identical_across_threads(Run&& run, const std::string& what) {
  const auto reference_run = run(1);
  for (const int nthreads : {1, 2, 3, 4}) {
    for (int rep = 0; rep < 3; ++rep) {
      const auto out = run(nthreads);
      ASSERT_EQ(out.size(), reference_run.size());
      ASSERT_EQ(std::memcmp(out.data(), reference_run.data(),
                            out.size() * sizeof(out[0])),
                0)
          << what << " nthreads=" << nthreads << " rep=" << rep;
    }
  }
}

/// Default blocking, plus a small one that gives these shapes several
/// jc, pc and ic steps (and TRMM's triangle skips) at every thread count.
std::vector<std::pair<GemmTuning, std::string>> bit_identity_tunings() {
  GemmTuning small;
  small.mc = 40;
  small.kc = 48;
  small.nc = 96;
  return {{GemmTuning{}, "default blocking"}, {small, "small blocking"}};
}

template <typename T>
void expect_gemm_bit_identical() {
  const int m = 517, n = 203, k = 131;  // off every blocking grid
  const auto a = random_matrix<T>(m, k, 21);
  const auto b = random_matrix<T>(k, n, 22);
  const auto c0 = random_matrix<T>(m, n, 23);
  for (const auto& [tuning, label] : bit_identity_tunings()) {
    expect_bit_identical_across_threads(
        [&](int nthreads) {
          auto c = c0;
          gemm<T>(Trans::kNo, Trans::kNo, m, n, k, T(1.5), a.data(), k,
                  b.data(), n, T(0.25), c.data(), n, nthreads, tuning);
          return c;
        },
        "gemm, " + label);
  }
}

template <typename T>
void expect_symm_bit_identical() {
  const int n = 259, m = 203;
  const auto a = random_matrix<T>(n, n, 24);
  const auto b = random_matrix<T>(n, m, 25);
  const auto c0 = random_matrix<T>(n, m, 26);
  for (const auto& [tuning, label] : bit_identity_tunings()) {
    for (const Uplo uplo : {Uplo::kLower, Uplo::kUpper}) {
      expect_bit_identical_across_threads(
          [&](int nthreads) {
            auto c = c0;
            symm<T>(uplo, n, m, T(1.5), a.data(), n, b.data(), m, T(0.25),
                    c.data(), m, nthreads, tuning);
            return c;
          },
          "symm uplo=" + std::to_string(static_cast<int>(uplo)) + ", " +
              label);
    }
  }
}

template <typename T>
void expect_syrk_bit_identical() {
  const int n = 259, k = 131;  // off every blocking grid
  const auto a = random_matrix<T>(n, k, 29);  // n x k, or k x n transposed
  const auto c0 = random_matrix<T>(n, n, 30);
  for (const auto& [tuning, label] : bit_identity_tunings()) {
    for (const Uplo uplo : {Uplo::kLower, Uplo::kUpper}) {
      for (const Trans trans : {Trans::kNo, Trans::kYes}) {
        const int lda = trans == Trans::kNo ? k : n;
        expect_bit_identical_across_threads(
            [&](int nthreads) {
              auto c = c0;
              syrk<T>(uplo, trans, n, k, T(1.5), a.data(), lda, T(0.25),
                      c.data(), n, nthreads, tuning);
              return c;
            },
            "syrk uplo=" + std::to_string(static_cast<int>(uplo)) +
                " trans=" + std::to_string(static_cast<int>(trans)) + ", " +
                label);
      }
    }
  }
}

template <typename T>
void expect_trmm_bit_identical() {
  const int n = 259, m = 203;
  const auto a = random_matrix<T>(n, n, 27);
  const auto b0 = random_matrix<T>(n, m, 28);
  for (const auto& [tuning, label] : bit_identity_tunings()) {
    for (const Uplo uplo : {Uplo::kLower, Uplo::kUpper}) {
      for (const Trans trans : {Trans::kNo, Trans::kYes}) {
        for (const Diag diag : {Diag::kNonUnit, Diag::kUnit}) {
          expect_bit_identical_across_threads(
              [&](int nthreads) {
                auto b = b0;
                trmm<T>(uplo, trans, diag, n, m, T(1.25), a.data(), n,
                        b.data(), m, nthreads, tuning);
                return b;
              },
              "trmm uplo=" + std::to_string(static_cast<int>(uplo)) +
                  " trans=" + std::to_string(static_cast<int>(trans)) +
                  " diag=" + std::to_string(static_cast<int>(diag)) + ", " +
                  label);
        }
      }
    }
  }
}

TEST(RaggedShapes, ResultsBitIdenticalAcrossThreadCountsAndRuns) {
  // The steal deck reorders which THREAD computes a tile, never the
  // per-element arithmetic: every (thread count, run) pair must agree bit
  // for bit, including p = 1 (same blocking, same accumulation order).
  expect_gemm_bit_identical<float>();
  expect_gemm_bit_identical<double>();
  expect_symm_bit_identical<float>();
  expect_trmm_bit_identical<float>();
  expect_syrk_bit_identical<float>();
  expect_syrk_bit_identical<double>();
}

TEST(RaggedShapes, NestedCallsMatchTopLevelSerialCalls) {
  // Four pool participants each run GEMM, SYMM, TRMM and SYRK on their own
  // operands at once. Inside a region every call collapses to p = 1, so
  // four p = 1 calls run concurrently: their packing scratch must come from
  // each caller's own thread slab, never from the one shared slab, or the
  // calls would overwrite each other's panels. Each output must equal the
  // same call made at top level with nthreads = 1.
  constexpr std::size_t kCallers = 4;
  const int m = 137, n = 91, k = 75;
  struct Operands {
    std::vector<float> a, b, c, sym, tri, b_tri;
  };
  std::vector<Operands> ops(kCallers);
  for (std::size_t t = 0; t < kCallers; ++t) {
    const std::uint64_t s = 100 + 10 * t;
    ops[t] = {random_matrix<float>(m, k, s), random_matrix<float>(k, n, s + 1),
              random_matrix<float>(m, n, s + 2),
              random_matrix<float>(m, m, s + 3),
              random_matrix<float>(m, m, s + 4),
              random_matrix<float>(m, n, s + 5)};
  }

  struct Outputs {
    std::vector<float> gemm, symm, trmm, syrk;
  };
  auto run_all = [&](const Operands& o) {
    Outputs out{o.c, o.c, o.b_tri, o.sym};
    gemm<float>(Trans::kNo, Trans::kNo, m, n, k, 1.5f, o.a.data(), k,
                o.b.data(), n, 0.25f, out.gemm.data(), n, 1);
    symm<float>(Uplo::kLower, m, n, 1.5f, o.sym.data(), m, o.c.data(), n,
                0.25f, out.symm.data(), n, 1);
    trmm<float>(Uplo::kUpper, Trans::kNo, Diag::kNonUnit, m, n, 1.25f,
                o.tri.data(), m, out.trmm.data(), n, 1);
    syrk<float>(Uplo::kLower, Trans::kNo, m, k, 1.5f, o.a.data(), k, 0.25f,
                out.syrk.data(), m, 1);
    return out;
  };

  std::vector<Outputs> expected;
  for (const auto& o : ops) expected.push_back(run_all(o));

  ThreadPool& pool = ThreadPool::global();
  if (pool.max_threads() < kCallers) GTEST_SKIP() << "needs a 4-thread pool";
  std::vector<Outputs> nested(kCallers);
  pool.parallel_region(kCallers, [&](std::size_t tid, std::size_t nt) {
    // Each participant repeats its calls so they overlap the others'.
    for (std::size_t t = tid; t < kCallers; t += nt) {
      for (int rep = 0; rep < 3; ++rep) nested[t] = run_all(ops[t]);
    }
  });

  for (std::size_t t = 0; t < kCallers; ++t) {
    const auto check = [&](const std::vector<float>& got,
                           const std::vector<float>& want, const char* op) {
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            got.size() * sizeof(float)),
                0)
          << op << " of caller " << t;
    };
    check(nested[t].gemm, expected[t].gemm, "gemm");
    check(nested[t].symm, expected[t].symm, "symm");
    check(nested[t].trmm, expected[t].trmm, "trmm");
    check(nested[t].syrk, expected[t].syrk, "syrk");
  }
}

TEST(RaggedShapes, PipelineCountersMatchSchedule) {
  // tiles/panels are schedule invariants: every (jc, pc) panel is packed
  // once and every row tile computed once per panel, no matter which thread
  // got it. Deterministic even under stealing.
  auto& stats = detail::pipeline_stats();
  const int m = 1201, n = 640, k = 512;
  const auto a = random_matrix<float>(m, k, 31);
  const auto b = random_matrix<float>(k, n, 32);
  auto c = random_matrix<float>(m, n, 33);

  GemmTuning tuning;
  tuning.mc = 256;
  tuning.kc = 128;
  tuning.nc = 320;
  const std::size_t p = std::min<std::size_t>(
      4, ThreadPool::global().max_threads());
  if (p < 2) GTEST_SKIP() << "needs a multi-thread pool";

  const auto panels_before = stats.panels.load(std::memory_order_relaxed);
  const auto tiles_before = stats.tiles.load(std::memory_order_relaxed);
  gemm<float>(Trans::kNo, Trans::kNo, m, n, k, 1.0f, a.data(), k, b.data(),
              n, 0.0f, c.data(), n, static_cast<int>(p), tuning);

  // Resolved blocking: mc=252/kc=128/nc rounded to the kernel's nr — read
  // the realised counts instead of re-deriving nr here.
  const auto panels =
      stats.panels.load(std::memory_order_relaxed) - panels_before;
  const auto tiles =
      stats.tiles.load(std::memory_order_relaxed) - tiles_before;
  ASSERT_GT(panels, 0u);
  EXPECT_EQ(tiles % panels, 0u) << "every panel computes every row tile";
  const auto row_tiles = tiles / panels;
  EXPECT_GE(row_tiles, 5u);  // m=1201 over mc<=256 is at least 5 tiles
}

// ----------------------------------------- SYRK / SYMM / TRMM through it --

TEST(RaggedShapes, SyrkMatchesReference) {
  // n = 8 is fewer MR-row tiles than threads; n = 257 with k = 7 is a
  // single sub-kc panel; 64 x 2000 is the skinny-n regime.
  for (const auto [n, k] : {std::pair{131, 257}, std::pair{8, 512},
                            std::pair{257, 7}, std::pair{64, 2000}}) {
    for (const Uplo uplo : {Uplo::kLower, Uplo::kUpper}) {
      for (const Trans trans : {Trans::kNo, Trans::kYes}) {
        const auto a = random_matrix<float>(n, k, 37);
        const int lda = trans == Trans::kNo ? k : n;
        auto c = random_matrix<float>(n, n, 38);
        auto c_ref = c;
        syrk<float>(uplo, trans, n, k, 1.5f, a.data(), lda, -0.5f, c.data(),
                    n, 0);
        reference_syrk<float>(uplo, trans, n, k, 1.5f, a.data(), lda, -0.5f,
                              c_ref.data(), n);
        const double tol = 1e-4 * k;
        for (long i = 0; i < static_cast<long>(n) * n; ++i) {
          ASSERT_NEAR(c[i], c_ref[i], tol)
              << "n=" << n << " k=" << k << " i=" << i;
        }
      }
    }
  }
}

TEST(RaggedShapes, SymmMatchesReference) {
  for (const auto [n, m] : {std::pair{131, 257}, std::pair{8, 512},
                            std::pair{257, 33}}) {
    for (const Uplo uplo : {Uplo::kLower, Uplo::kUpper}) {
      const auto a = random_matrix<float>(n, n, 41);
      const auto b = random_matrix<float>(n, m, 42);
      auto c = random_matrix<float>(n, m, 43);
      auto c_ref = c;
      symm<float>(uplo, n, m, 1.5f, a.data(), n, b.data(), m, -0.5f,
                  c.data(), m, 0);
      reference_symm<float>(uplo, n, m, 1.5f, a.data(), n, b.data(), m,
                            -0.5f, c_ref.data(), m);
      const double tol = 1e-4 * n;
      for (long i = 0; i < static_cast<long>(n) * m; ++i) {
        ASSERT_NEAR(c[i], c_ref[i], tol)
            << "n=" << n << " m=" << m << " i=" << i;
      }
    }
  }
}

TEST(RaggedShapes, TrmmMatchesReference) {
  for (const auto [n, m] : {std::pair{131, 257}, std::pair{8, 512},
                            std::pair{257, 33}}) {
    for (const Uplo uplo : {Uplo::kLower, Uplo::kUpper}) {
      for (const Trans trans : {Trans::kNo, Trans::kYes}) {
        const auto a = random_matrix<float>(n, n, 51);
        auto b = random_matrix<float>(n, m, 52);
        auto b_ref = b;
        trmm<float>(uplo, trans, Diag::kNonUnit, n, m, 1.25f, a.data(), n,
                    b.data(), m, 0);
        reference_trmm<float>(uplo, trans, Diag::kNonUnit, n, m, 1.25f,
                              a.data(), n, b_ref.data(), m);
        const double tol = 1e-4 * n;
        for (long i = 0; i < static_cast<long>(n) * m; ++i) {
          ASSERT_NEAR(b[i], b_ref[i], tol)
              << "n=" << n << " m=" << m << " i=" << i;
        }
      }
    }
  }
}

// ------------------------------------------------------------ arena NUMA --

TEST(ArenaStats, SurfacesPlacementAndSizes) {
  // The env is parsed once per process, so this asserts the resolved
  // default (or whatever the CI job forced via ADSALA_NUMA) is surfaced
  // coherently, not a specific mode.
  auto& arena = PackArena::global();
  // Force at least one carve so the sizes are non-trivial.
  arena.thread_slab<float>(1024);
  const auto stats = arena.arena_stats();
  const std::string mode = stats.numa_mode;
  EXPECT_TRUE(mode == "firsttouch" || mode == "node" || mode == "off")
      << "mode=" << mode;
  if (mode == "node") {
    EXPECT_GE(stats.numa_node, 0);
  } else {
    EXPECT_EQ(stats.numa_node, -1);
  }
  if (!stats.numa_available) EXPECT_FALSE(stats.numa_bound);
  EXPECT_GE(stats.thread_bytes, 1024 * sizeof(float));
  EXPECT_EQ(stats.shared_bytes + stats.thread_bytes,
            arena.footprint_bytes());
  EXPECT_GE(stats.growth_count, 1u);
}

TEST(ArenaStats, GrowthCountStableAcrossRepeatedPipelinedCalls) {
  // The zero-allocation hot path must survive the ping/pong carve: two
  // identical pipelined GEMMs after a warm-up allocate nothing.
  const int dim = 192;
  const auto a = random_matrix<float>(dim, dim, 61);
  const auto b = random_matrix<float>(dim, dim, 62);
  auto c = random_matrix<float>(dim, dim, 63);
  auto call = [&] {
    gemm<float>(Trans::kNo, Trans::kNo, dim, dim, dim, 1.0f, a.data(), dim,
                b.data(), dim, 0.0f, c.data(), dim, 0);
  };
  call();  // warm
  const auto before = PackArena::global().growth_count();
  call();
  call();
  EXPECT_EQ(PackArena::global().growth_count(), before);
}

}  // namespace
}  // namespace adsala::blas
