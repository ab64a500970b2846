// Registry completeness and the TRMM proof-of-architecture: every blas/op.h
// row must have a full OpTraits row whose pieces (shape canonicalisation,
// sampler, analytic cost, native closure) agree with the conventions of
// docs/OPERATIONS.md, and a newly registered op (TRMM) must be served by the
// whole pipeline — including graceful GEMM-proxy fallback on artefacts that
// predate it (the 23-, 21- and 17-column eras).
#include <gtest/gtest.h>

#include <filesystem>

#include "core/adsala.h"
#include "core/gather.h"
#include "core/op_registry.h"
#include "core/trainer.h"
#include "preprocess/features.h"

namespace adsala::core {
namespace {

// ---------------------------------------------------------- completeness --
// (The row-per-op and table-order invariants are additionally enforced at
// compile time by static_asserts inside op_registry.cpp.)

TEST(OpRegistry, EveryRegisteredOpHasACompleteTraitsRow) {
  ASSERT_EQ(op_registry().size(), blas::kNumOps);
  for (const blas::OpKind op : blas::all_ops()) {
    const OpTraits& traits = op_traits(op);
    EXPECT_EQ(traits.op, op) << blas::op_name(op);
    EXPECT_TRUE(traits.family_dims == 2 || traits.family_dims == 3);
    for (int d = 0; d < traits.family_dims; ++d) {
      ASSERT_NE(traits.coord_names[d], nullptr) << blas::op_name(op);
    }
    ASSERT_NE(traits.to_shape, nullptr) << blas::op_name(op);
    ASSERT_NE(traits.from_shape, nullptr) << blas::op_name(op);
    ASSERT_NE(traits.make_sampler, nullptr) << blas::op_name(op);
    ASSERT_NE(traits.measure_native, nullptr) << blas::op_name(op);
  }
}

TEST(OpRegistry, ShapeCanonicalisationRoundTrips) {
  for (const blas::OpKind op : blas::all_ops()) {
    const OpTraits& traits = op_traits(op);
    const simarch::GemmShape shape = traits.to_shape(40, 30, 20, 8);
    EXPECT_EQ(shape.elem_bytes, 8) << blas::op_name(op);
    long x = 0, y = 0, z = 20;  // z untouched for 2-D families
    traits.from_shape(shape, &x, &y, &z);
    EXPECT_EQ(x, 40) << blas::op_name(op);
    EXPECT_EQ(y, 30) << blas::op_name(op);
    if (traits.family_dims == 3) EXPECT_EQ(z, 20) << blas::op_name(op);
    if (traits.family_dims == 2) {
      // The 2-D conventions carry the family marker in the stored shape.
      EXPECT_TRUE(shape.m == shape.n || shape.m == shape.k)
          << blas::op_name(op);
    }
  }
}

TEST(OpRegistry, SamplersRespectTheStoredConventions) {
  sampling::DomainConfig domain;
  domain.memory_cap_bytes = 64ull * 1024 * 1024;
  domain.dim_max = 8000;
  domain.seed = 7;
  for (const blas::OpKind op : blas::all_ops()) {
    const OpTraits& traits = op_traits(op);
    const auto shapes = traits.make_sampler(domain)->sample(25);
    ASSERT_EQ(shapes.size(), 25u) << blas::op_name(op);
    for (const auto& s : shapes) {
      // Round-tripping through the family coordinates must be lossless:
      // the sampler emits exactly the canonical stored shapes.
      long x = 0, y = 0, z = 0;
      traits.from_shape(s, &x, &y, &z);
      const simarch::GemmShape back = traits.to_shape(x, y, z, s.elem_bytes);
      EXPECT_EQ(back.m, s.m) << blas::op_name(op);
      EXPECT_EQ(back.k, s.k) << blas::op_name(op);
      EXPECT_EQ(back.n, s.n) << blas::op_name(op);
    }
  }
}

// ---------------------------------------------------------- golden values --
// Bit-identity guard over every registry row: the noise-free total and the
// noisy 10-iteration mean of two shapes at two thread counts on Gadi, and the
// first eight shapes the row's sampler draws. The timings are hexfloats, so a
// change to any cost model, noise salt, rotation salt or footprint shows up
// here — refactors of the simulated path must leave this table alone.

struct GoldenRow {
  blas::OpKind op;
  /// {time_op total, measure_op} per (shape, threads), shapes outer, threads
  /// inner.
  double timings[8];
  long shapes[8][3];  ///< first 8 sampler draws as stored (m, k, n)
};

constexpr GoldenRow kGolden[] = {
    {blas::OpKind::kGemm,
     {0x1.de2378797e64p-11, 0x1.09560edc6f032p-10, 0x1.6f8aca6c5ab62p-10,
      0x1.77606554338bdp-10, 0x1.27e1dab436b4ep-12, 0x1.547ace8ab631ep-12,
      0x1.7601a988ad42ap-4, 0x1.868f59f39e621p-4},
     {{53, 5, 868}, {1, 542, 18}, {109, 64, 1177}, {70, 191, 889},
      {2, 3753, 13}, {79, 99, 1056}, {67, 1, 946}, {2, 2462, 20}}},
    {blas::OpKind::kSyrk,
     {0x1.5df75146e91b4p-11, 0x1.8aef622e3a45dp-11, 0x1.6a1943e3a2254p-10,
      0x1.5d3344949d6a1p-10, 0x1.18f6e7e1af3bp-12, 0x1.1386d444da735p-12,
      0x1.75fd30644bceap-4, 0x1.7c7452e19a79ap-4},
     {{4, 467, 4}, {108, 227, 108}, {253, 27, 253}, {24, 1527, 24},
      {12, 9, 12}, {39, 920, 39}, {69, 566, 69}, {8, 3197, 8}}},
    {blas::OpKind::kTrsm,
     {0x1.6d96392fab978p-10, 0x1.6da4ef4b58a3ap-10, 0x1.3ab76a694d39ap-9,
      0x1.2a8d0f76f29c9p-9, 0x1.d5868bc2533d4p-12, 0x1.12d3583ff7868p-11,
      0x1.102d5eedb700bp-6, 0x1.0c7a6192632efp-6},
     {{135, 135, 882}, {37, 37, 4763}, {293, 293, 12}, {11, 11, 1832},
      {78, 78, 276}, {4, 4, 3633}, {56, 56, 1161}, {22, 22, 62}}},
    {blas::OpKind::kSymm,
     {0x1.42c514509d7bep-10, 0x1.6d068fcba50d5p-10, 0x1.e09e33f40efcep-10,
      0x1.e1603b3122e33p-10, 0x1.716484592e82p-12, 0x1.a044d63a7b2a2p-12,
      0x1.5b01cf5ead817p-6, 0x1.d15d76e758c2p-6},
     {{6, 6, 106}, {114, 114, 548}, {26, 26, 3933}, {14, 14, 6430},
      {220, 220, 215}, {1, 1, 2914}, {145, 145, 23}, {43, 43, 363}}},
    {blas::OpKind::kTrmm,
     {0x1.7ac78cafd840ep-11, 0x1.b550d6328a9d6p-11, 0x1.b451f1a169f1p-10,
      0x1.9592033bd4901p-10, 0x1.0c0c521025d14p-12, 0x1.31381b54f57c9p-12,
      0x1.4036468ce5c55p-6, 0x1.44ee336a530c5p-6},
     {{40, 40, 2462}, {141, 141, 185}, {13, 13, 130}, {60, 60, 965},
      {176, 176, 24}, {5, 5, 2250}, {25, 25, 7}, {2, 2, 834}}},
};

TEST(OpRegistry, GoldenTimingsAndSamplerDrawsAreBitIdentical) {
  ASSERT_EQ(std::size(kGolden), op_registry().size());
  simarch::MachineModel model(simarch::gadi_topology(), 42);
  // A 1 MB cap rejects enough of the domain that every row's footprint
  // decides some of its first eight draws.
  sampling::DomainConfig domain;
  domain.memory_cap_bytes = 1024 * 1024;
  domain.dim_max = 8000;
  domain.seed = 7;
  for (const GoldenRow& golden : kGolden) {
    const OpTraits& traits = op_traits(golden.op);
    const char* name = blas::op_name(golden.op);
    const simarch::GemmShape shapes[2] = {traits.to_shape(800, 400, 600, 4),
                                          traits.to_shape(96, 2048, 64, 8)};
    int i = 0;
    for (const simarch::GemmShape& s : shapes) {
      for (const int p : {4, 48}) {
        const simarch::ExecPolicy policy{.nthreads = p};
        EXPECT_EQ(model.time_op(s, policy, traits.cost).total(),
                  golden.timings[i])
            << name << " time_op, threads " << p;
        EXPECT_EQ(model.measure_op(s, policy, traits.cost),
                  golden.timings[i + 1])
            << name << " measure_op, threads " << p;
        i += 2;
      }
    }
    const auto drawn = traits.make_sampler(domain)->sample(8);
    ASSERT_EQ(drawn.size(), 8u) << name;
    for (std::size_t d = 0; d < 8; ++d) {
      EXPECT_EQ(drawn[d].m, golden.shapes[d][0]) << name << " draw " << d;
      EXPECT_EQ(drawn[d].k, golden.shapes[d][1]) << name << " draw " << d;
      EXPECT_EQ(drawn[d].n, golden.shapes[d][2]) << name << " draw " << d;
      EXPECT_EQ(drawn[d].elem_bytes, 4) << name << " draw " << d;
    }
  }
}

TEST(OpRegistry, TrmmCostSitsBetweenTriangleAndGemm) {
  // TRMM does triangle-fraction kernel work with a packing surcharge: its
  // noise-free time must be below the equivalent GEMM's and its copy above.
  simarch::MachineModel model(simarch::gadi_topology());
  const simarch::GemmShape s{800, 800, 400, 4};
  const simarch::ExecPolicy policy{.nthreads = 8};
  const auto gemm = model.time_op(s, policy);
  const auto trmm =
      model.time_op(s, policy, op_traits(blas::OpKind::kTrmm).cost);
  EXPECT_LT(trmm.kernel_s, gemm.kernel_s);
  EXPECT_GT(trmm.copy_s, gemm.copy_s);
  EXPECT_DOUBLE_EQ(trmm.sync_s, gemm.sync_s);
  // Decorrelated noise stream, deterministic draws.
  EXPECT_DOUBLE_EQ(
      model.measure_op(s, policy, op_traits(blas::OpKind::kTrmm).cost),
      model.measure_op(s, policy, op_traits(blas::OpKind::kTrmm).cost));
  EXPECT_NE(model.measure_op(s, policy, op_traits(blas::OpKind::kTrmm).cost),
            model.measure_op(s, policy, op_traits(blas::OpKind::kTrsm).cost));
}

// -------------------------------------------------- TRMM through the stack --

SimulatedExecutor tiny_executor() {
  return SimulatedExecutor(
      simarch::MachineModel(simarch::tiny_topology(), 42));
}

GatherConfig tiny_gather_config(std::size_t n_samples) {
  GatherConfig cfg;
  cfg.n_samples = n_samples;
  cfg.iterations = 3;
  cfg.domain.memory_cap_bytes = 64ull * 1024 * 1024;
  cfg.domain.dim_max = 8000;
  cfg.domain.seed = 7;
  return cfg;
}

TEST(OpRegistry, FreshAllOpModelServesTrmmFirstClass) {
  auto ex = tiny_executor();
  GatherConfig cfg = tiny_gather_config(40);
  const auto ops = blas::all_ops();
  cfg.ops.assign(ops.begin(), ops.end());
  const auto data = gather_timings(ex, cfg);
  TrainOptions opts;
  opts.candidates = {"xgboost"};
  opts.tune = false;
  AdsalaGemm adsala(train_and_select(data, opts));
  ASSERT_TRUE(adsala.op_aware());
  ASSERT_EQ(adsala.pipeline().n_input_features(),
            preprocess::kNumOpAwareFeatures);

  int n_diff = 0;
  for (const auto& rec : data.records) {
    if (rec.op != blas::OpKind::kTrmm) continue;
    const int p = adsala.select_threads(blas::OpKind::kTrmm, rec.shape.m,
                                        rec.shape.n);
    EXPECT_GE(p, 1);
    EXPECT_LE(p, 16);
    n_diff +=
        (p != adsala.select_threads(rec.shape.m, rec.shape.m, rec.shape.n));
  }
  EXPECT_GT(n_diff, 0)
      << "trmm-family rows must influence thread selection";
}

/// Hand-builds an artefact pair of a past schema era: `op_names` lists the
/// op one-hot columns that era carried (in code order).
AdsalaGemm era_artefact(const GatherData& data,
                        const std::vector<std::string>& op_names) {
  std::vector<std::string> names = preprocess::feature_names();
  for (const auto& n : op_names) names.push_back("op_" + n);
  names.insert(names.end(), {"kernel_generic", "kernel_avx2"});

  ml::Dataset rows(names);
  for (const auto& rec : data.records) {
    for (std::size_t t = 0; t < rec.threads.size(); ++t) {
      const auto base = preprocess::make_features(
          static_cast<double>(rec.shape.m), static_cast<double>(rec.shape.k),
          static_cast<double>(rec.shape.n),
          static_cast<double>(rec.threads[t]));
      std::vector<double> row(base.begin(), base.end());
      for (const auto& n : op_names) {
        row.push_back(n == blas::op_name(rec.op) ? 1.0 : 0.0);
      }
      row.insert(row.end(), {1.0, 0.0});
      rows.add_row(row, rec.runtime[t]);
    }
  }

  TrainOutput legacy;
  legacy.selected = "decision_tree";
  legacy.thread_grid = data.thread_grid;
  legacy.max_threads = data.max_threads;
  legacy.platform = data.platform;
  preprocess::PipelineConfig pipe_cfg;
  for (std::size_t j = preprocess::kNumFeatures; j < names.size(); ++j) {
    pipe_cfg.categorical.push_back(j);
  }
  legacy.pipeline = preprocess::Pipeline(pipe_cfg);
  const auto train_set = legacy.pipeline.fit_transform(rows);
  legacy.model = ml::make_model("decision_tree");
  legacy.model->fit(train_set);
  return AdsalaGemm(std::move(legacy));
}

TEST(OpRegistry, TrmmDegradesToGemmProxyOnPreTrmmArtefacts) {
  // A PR-3-era 23-column artefact (gemm/syrk/trsm/symm one-hots) predates
  // TRMM: trmm queries must build op_gemm = 1 rows and agree with the
  // explicit GEMM query of the equivalent shape, while trsm stays
  // first-class.
  auto ex = tiny_executor();
  GatherConfig cfg = tiny_gather_config(40);
  cfg.ops = {blas::OpKind::kGemm, blas::OpKind::kSyrk, blas::OpKind::kTrsm,
             blas::OpKind::kSymm};
  const auto data = gather_timings(ex, cfg);

  AdsalaGemm pr3 = era_artefact(data, {"gemm", "syrk", "trsm", "symm"});
  EXPECT_TRUE(pr3.op_aware());
  ASSERT_EQ(pr3.pipeline().n_input_features(), 23u);
  for (long n : {64L, 256L, 700L}) {
    const int p_gemm = pr3.select_threads(n, n, 3 * n);
    EXPECT_EQ(pr3.select_threads(blas::OpKind::kTrmm, n, 3 * n), p_gemm);
  }

  // A PR-2-era 21-column artefact proxies every triangular family.
  AdsalaGemm pr2 = era_artefact(data, {"gemm", "syrk"});
  ASSERT_EQ(pr2.pipeline().n_input_features(), 21u);
  for (long n : {64L, 256L, 700L}) {
    const int p_gemm = pr2.select_threads(n, n, 3 * n);
    EXPECT_EQ(pr2.select_threads(blas::OpKind::kTrmm, n, 3 * n), p_gemm);
    EXPECT_EQ(pr2.select_threads(blas::OpKind::kTrsm, n, 3 * n), p_gemm);
  }
}

TEST(OpRegistry, TrmmArtefactsSurviveSaveLoad) {
  auto ex = tiny_executor();
  GatherConfig cfg = tiny_gather_config(30);
  const auto ops = blas::all_ops();
  cfg.ops.assign(ops.begin(), ops.end());
  TrainOptions opts;
  opts.candidates = {"xgboost"};
  opts.tune = false;
  AdsalaGemm original(train_and_select(gather_timings(ex, cfg), opts));
  const std::string model_path = "/tmp/adsala_test_trmm_model.json";
  const std::string config_path = "/tmp/adsala_test_trmm_config.json";
  original.save(model_path, config_path);
  AdsalaGemm restored(model_path, config_path);
  for (long n : {64L, 300L, 900L}) {
    EXPECT_EQ(restored.select_threads(blas::OpKind::kTrmm, n, 2 * n),
              original.select_threads(blas::OpKind::kTrmm, n, 2 * n));
  }
  std::filesystem::remove(model_path);
  std::filesystem::remove(config_path);
}

}  // namespace
}  // namespace adsala::core
