// Unit tests for the common utilities: aligned buffers, RNG, stats, CSV,
// JSON, thread pool, packing arena.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "common/aligned_buffer.h"
#include "common/csv.h"
#include "common/json.h"
#include "common/pack_arena.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"

namespace adsala {
namespace {

// ----------------------------------------------------------- AlignedBuffer

TEST(AlignedBuffer, IsCacheLineAligned) {
  AlignedBuffer<float> buf(1000);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kCacheLineBytes,
            0u);
  EXPECT_EQ(buf.size(), 1000u);
}

TEST(AlignedBuffer, OddSizesStayAligned) {
  for (std::size_t n : {1u, 3u, 7u, 63u, 65u, 129u}) {
    AlignedBuffer<double> buf(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kCacheLineBytes,
              0u);
  }
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<int> a(10);
  a[0] = 42;
  int* ptr = a.data();
  AlignedBuffer<int> b(std::move(a));
  EXPECT_EQ(b.data(), ptr);
  EXPECT_EQ(b[0], 42);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_TRUE(a.empty());
}

TEST(AlignedBuffer, EmptyBufferIsSafe) {
  AlignedBuffer<float> buf;
  EXPECT_TRUE(buf.empty());
  AlignedBuffer<float> moved(std::move(buf));
  EXPECT_TRUE(moved.empty());
}

TEST(Matrix, RowMajorIndexing) {
  Matrix<double> m(3, 4);
  m.fill(0.0);
  m(1, 2) = 5.0;
  EXPECT_EQ(m.data()[1 * 4 + 2], 5.0);
  EXPECT_EQ(m.row(1)[2], 5.0);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
}

// --------------------------------------------------------------------- Rng

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, BelowIsBounded) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(7), 7u);
  }
}

TEST(Rng, RangeIsInclusive) {
  Rng rng(19);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.range(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

// ------------------------------------------------------------------- Stats

TEST(Stats, MeanVarStd) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(variance(xs), 2.0);
  EXPECT_DOUBLE_EQ(stddev(xs), std::sqrt(2.0));
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25.0);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> xs = {1, 2, 3, 4};
  const std::vector<double> ys = {2, 4, 6, 8};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  const std::vector<double> neg = {8, 6, 4, 2};
  EXPECT_NEAR(pearson(xs, neg), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantIsZero) {
  const std::vector<double> xs = {1, 1, 1, 1};
  const std::vector<double> ys = {2, 4, 6, 8};
  EXPECT_EQ(pearson(xs, ys), 0.0);
}

TEST(Stats, HistogramClampsEdges) {
  const std::vector<double> xs = {-5.0, 0.1, 0.9, 20.0};
  const auto h = histogram(xs, 0.0, 1.0, 2);
  EXPECT_EQ(h[0], 2u);  // -5 clamped into first bucket
  EXPECT_EQ(h[1], 2u);  // 20 clamped into last bucket
}

TEST(Stats, SkewnessSignMatchesTail) {
  std::vector<double> right = {1, 1, 1, 2, 2, 10};
  EXPECT_GT(skewness(right), 0.0);
  std::vector<double> left = {-10, -2, -2, -1, -1, -1};
  EXPECT_LT(skewness(left), 0.0);
}

// --------------------------------------------------------------------- CSV

TEST(Csv, RoundTrip) {
  CsvTable t;
  t.header = {"a", "b"};
  t.rows = {{1.5, 2.25}, {-3.0, 1e-9}};
  const std::string path = "/tmp/adsala_test_csv.csv";
  write_csv(path, t);
  const CsvTable back = read_csv(path);
  ASSERT_EQ(back.header, t.header);
  ASSERT_EQ(back.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(back.rows[1][1], 1e-9);
  EXPECT_EQ(back.col_index("b"), 1u);
  EXPECT_EQ(back.column("a"), (std::vector<double>{1.5, -3.0}));
  std::filesystem::remove(path);
}

TEST(Csv, MissingColumnThrows) {
  CsvTable t;
  t.header = {"a"};
  EXPECT_THROW(t.col_index("zzz"), std::out_of_range);
}

// -------------------------------------------------------------------- JSON

TEST(Json, ParseScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("-1.5e3").as_number(), -1500.0);
  EXPECT_EQ(Json::parse("\"hi\\nthere\"").as_string(), "hi\nthere");
}

TEST(Json, ParseNested) {
  const Json v = Json::parse(R"({"a": [1, 2, {"b": true}], "c": "x"})");
  EXPECT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_TRUE(v.at("a").as_array()[2].at("b").as_bool());
  EXPECT_EQ(v.at("c").as_string(), "x");
}

TEST(Json, DumpParseRoundTrip) {
  Json v;
  v["name"] = Json("adsala");
  v["vals"] = Json::from_doubles({1.0, 2.5, -7.125, 1e-17});
  v["flag"] = Json(true);
  v["nested"]["deep"] = Json(3);
  for (int indent : {0, 2}) {
    const Json back = Json::parse(v.dump(indent));
    EXPECT_EQ(back.at("name").as_string(), "adsala");
    EXPECT_EQ(back.at("vals").to_doubles(),
              (std::vector<double>{1.0, 2.5, -7.125, 1e-17}));
    EXPECT_TRUE(back.at("flag").as_bool());
    EXPECT_EQ(back.at("nested").at("deep").as_int(), 3);
  }
}

TEST(Json, StringEscapes) {
  Json v(std::string("quote\" back\\slash \t tab"));
  const Json back = Json::parse(v.dump());
  EXPECT_EQ(back.as_string(), "quote\" back\\slash \t tab");
}

TEST(Json, MalformedThrows) {
  EXPECT_THROW(Json::parse("{"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(Json::parse("tru"), std::runtime_error);
  EXPECT_THROW(Json::parse("1 2"), std::runtime_error);
  EXPECT_THROW(Json::parse(""), std::runtime_error);
}

TEST(Json, FileRoundTrip) {
  const std::string path = "/tmp/adsala_test_json.json";
  Json v;
  v["x"] = Json(42);
  write_json_file(path, v);
  EXPECT_EQ(read_json_file(path).at("x").as_int(), 42);
  std::filesystem::remove(path);
}

// -------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RegionRunsExactThreadCount) {
  ThreadPool pool(3);  // + caller = up to 4
  for (std::size_t want : {1u, 2u, 4u}) {
    std::atomic<int> count{0};
    std::atomic<std::size_t> seen_nt{0};
    pool.parallel_region(want, [&](std::size_t, std::size_t nt) {
      seen_nt = nt;
      count.fetch_add(1);
    });
    EXPECT_EQ(count.load(), static_cast<int>(want));
    EXPECT_EQ(seen_nt.load(), want);
  }
}

TEST(ThreadPool, RegionClampsToMax) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.parallel_region(64, [&](std::size_t, std::size_t nt) {
    EXPECT_EQ(nt, 2u);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(4, 0, 100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedRegionDegradesToSerial) {
  ThreadPool pool(3);
  std::atomic<int> inner_total{0};
  pool.parallel_region(4, [&](std::size_t, std::size_t) {
    // A nested request must not deadlock; it runs serially on this thread.
    ThreadPool::global().parallel_region(4, [&](std::size_t, std::size_t nt) {
      EXPECT_EQ(nt, 1u);
      inner_total.fetch_add(1);
    });
  });
  EXPECT_EQ(inner_total.load(), 4);
}

TEST(ThreadPool, ManySequentialRegions) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  for (int r = 0; r < 200; ++r) {
    pool.parallel_region(4, [&](std::size_t, std::size_t) { sum += 1; });
  }
  EXPECT_EQ(sum.load(), 800);
}

// --------------------------------------------------------------- PackArena

TEST(PackArena, SecondIdenticalCarveAllocatesNothing) {
  PackArena arena;
  float* p = arena.thread_slab<float>(1000);
  double* s = arena.shared_slab<double>(500);
  // (growth_count may be 0 here if an earlier test already grew this
  // thread's slab — it is shared per OS thread — but the shared slab is
  // per-instance and fresh, so at least that one grew.)
  const std::size_t growths = arena.growth_count();
  EXPECT_GT(growths, 0u);
  // Same (or smaller) request: same storage, zero new allocations.
  EXPECT_EQ(arena.thread_slab<float>(1000), p);
  EXPECT_EQ(arena.thread_slab<float>(64), p);
  EXPECT_EQ(arena.shared_slab<double>(500), s);
  EXPECT_EQ(arena.growth_count(), growths);
  // A larger request grows (grow-only: footprint never shrinks).
  const std::size_t before = arena.footprint_bytes();
  arena.shared_slab<double>(100000);
  EXPECT_GT(arena.growth_count(), growths);
  EXPECT_GT(arena.footprint_bytes(), before);
}

TEST(PackArena, SlabsAreAlignedAndPaddingIsLineGranular) {
  PackArena arena;
  float* t = arena.thread_slab<float>(256);
  double* s = arena.shared_slab<double>(256);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t) % kCacheLineBytes, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(s) % kCacheLineBytes, 0u);
  EXPECT_NE(reinterpret_cast<void*>(t), reinterpret_cast<void*>(s));
  // padded_count keeps multi-buffer carves line-aligned.
  EXPECT_EQ(PackArena::padded_count<float>(1), 16u);
  EXPECT_EQ(PackArena::padded_count<float>(16), 16u);
  EXPECT_EQ(PackArena::padded_count<float>(17), 32u);
  EXPECT_EQ(PackArena::padded_count<double>(7), 8u);
}

TEST(PackArena, DistinctThreadsNeverShareSlabs) {
  // Two plain application threads issuing serial carves concurrently (the
  // shape of two std::threads each calling a serial BLAS op) must get
  // private storage — the thread slab is thread_local, not a table entry.
  PackArena arena;
  float* main_slab = arena.thread_slab<float>(512);
  float* other_slab = nullptr;
  std::thread t([&] { other_slab = arena.thread_slab<float>(512); });
  t.join();
  EXPECT_NE(other_slab, nullptr);
  EXPECT_NE(other_slab, main_slab);
}

TEST(PackArena, ConcurrentRegionsDontAliasSlabs) {
  // Each participant of a region carves (and grows) its own thread slab
  // concurrently, writes a participant-unique pattern, and re-reads it
  // after a barrier — overlap or a cross-thread growth invalidation would
  // corrupt the pattern.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kElems = 4096;
  ThreadPool pool(kThreads - 1);
  PackArena arena;
  std::barrier barrier(static_cast<std::ptrdiff_t>(kThreads));
  std::atomic<bool> corrupted{false};
  pool.parallel_region(kThreads, [&](std::size_t tid, std::size_t) {
    float* slab = arena.thread_slab<float>(kElems);
    for (std::size_t i = 0; i < kElems; ++i) {
      slab[i] = static_cast<float>(tid * kElems + i);
    }
    barrier.arrive_and_wait();
    for (std::size_t i = 0; i < kElems; ++i) {
      if (slab[i] != static_cast<float>(tid * kElems + i)) corrupted = true;
    }
  });
  EXPECT_FALSE(corrupted.load());
}

}  // namespace
}  // namespace adsala
