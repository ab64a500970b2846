// Integration tests of the ADSALA core: executors, gathering, training,
// model selection, the runtime class, and the full install() workflow.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "blas/kernels/dispatch.h"
#include "common/csv.h"
#include "common/json.h"
#include "common/rng.h"
#include "core/adsala.h"
#include "core/executor.h"
#include "core/gather.h"
#include "core/install.h"
#include "core/op_registry.h"
#include "core/trainer.h"
#include "preprocess/features.h"

namespace adsala::core {
namespace {

/// Small, fast simulated platform for test runs.
SimulatedExecutor tiny_executor() {
  return SimulatedExecutor(
      simarch::MachineModel(simarch::tiny_topology(), 42));
}

GatherConfig tiny_gather_config(std::size_t n_samples = 60) {
  GatherConfig cfg;
  cfg.n_samples = n_samples;
  cfg.iterations = 3;
  cfg.domain.memory_cap_bytes = 64ull * 1024 * 1024;
  cfg.domain.dim_max = 8000;
  cfg.domain.seed = 7;
  return cfg;
}

// --------------------------------------------------------------- Executors

TEST(Executor, DefaultThreadGridProperties) {
  for (int max : {4, 16, 48, 96, 256}) {
    const auto grid = default_thread_grid(max);
    EXPECT_EQ(grid.front(), 1);
    EXPECT_EQ(grid.back(), max);
    for (std::size_t i = 1; i < grid.size(); ++i) {
      EXPECT_LT(grid[i - 1], grid[i]) << "grid must be strictly increasing";
    }
  }
}

TEST(Executor, SimulatedReportsPlatform) {
  auto ex = tiny_executor();
  EXPECT_EQ(ex.name(), "tiny");
  EXPECT_EQ(ex.max_threads(), 16);
  SimulatedExecutor noht(simarch::MachineModel(simarch::tiny_topology()),
                         simarch::ExecPolicy{.allow_smt = false});
  EXPECT_EQ(noht.name(), "tiny-noht");
  EXPECT_EQ(noht.max_threads(), 8);
}

TEST(Executor, SimulatedMeasureIsDeterministic) {
  auto a = tiny_executor();
  auto b = tiny_executor();
  const simarch::GemmShape s{200, 300, 400, 4};
  EXPECT_DOUBLE_EQ(a.measure_op(blas::OpKind::kGemm, s, 4),
                   b.measure_op(blas::OpKind::kGemm, s, 4));
}

TEST(Executor, NativeMeasuresPositiveTime) {
  NativeExecutor ex(4);
  const simarch::GemmShape s{64, 64, 64, 4};
  const double t = ex.measure_op(blas::OpKind::kGemm, s, 2, 2);
  EXPECT_GT(t, 0.0);
  EXPECT_LT(t, 1.0) << "a 64^3 SGEMM cannot take a second";
}

TEST(Executor, NativeMeasuresEveryRegisteredOp) {
  NativeExecutor ex(4);
  const simarch::GemmShape s{96, 96, 48, 4};  // valid for every convention
  for (const blas::OpKind op : blas::all_ops()) {
    const double t = ex.measure_op(op, s, 2, 2);
    EXPECT_GT(t, 0.0) << blas::op_name(op);
    EXPECT_LT(t, 1.0) << blas::op_name(op);
  }
}

// ------------------------------------------------------------------ Gather

TEST(Gather, RecordsFullCurves) {
  auto ex = tiny_executor();
  const auto data = gather_timings(ex, tiny_gather_config(30));
  EXPECT_EQ(data.records.size(), 30u);
  EXPECT_EQ(data.max_threads, 16);
  for (const auto& rec : data.records) {
    ASSERT_EQ(rec.threads.size(), data.thread_grid.size());
    ASSERT_EQ(rec.runtime.size(), rec.threads.size());
    for (double t : rec.runtime) EXPECT_GT(t, 0.0);
    EXPECT_LE(rec.optimal_runtime(), rec.max_thread_runtime());
    EXPECT_GE(rec.optimal_threads(), 1);
    EXPECT_LE(rec.optimal_threads(), 16);
  }
}

TEST(Gather, DatasetHasRowPerShapeThreadPair) {
  auto ex = tiny_executor();
  const auto data = gather_timings(ex, tiny_gather_config(20));
  const auto ds = data.to_dataset();
  EXPECT_EQ(ds.size(), 20u * data.thread_grid.size());
  EXPECT_EQ(ds.n_features(), preprocess::kNumOpAwareFeatures);
  // A GEMM-only campaign one-hot-encodes every row as op_gemm.
  const std::size_t op_gemm = 17, op_syrk = 18;
  EXPECT_EQ(ds.feature_names()[op_gemm], "op_gemm");
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_DOUBLE_EQ(ds.row(i)[op_gemm], 1.0);
    EXPECT_DOUBLE_EQ(ds.row(i)[op_syrk], 0.0);
  }
}

TEST(Gather, SyrkCampaignTagsRecords) {
  auto ex = tiny_executor();
  GatherConfig cfg = tiny_gather_config(12);
  cfg.ops = {blas::OpKind::kGemm, blas::OpKind::kSyrk};
  const auto data = gather_timings(ex, cfg);
  ASSERT_EQ(data.records.size(), 24u);
  std::size_t n_syrk = 0;
  for (const auto& rec : data.records) {
    EXPECT_NE(rec.variant, blas::kernels::Variant::kAuto)
        << "records must carry a concrete kernel variant";
    for (double t : rec.runtime) EXPECT_GT(t, 0.0);
    if (rec.op == blas::OpKind::kSyrk) {
      ++n_syrk;
      EXPECT_EQ(rec.shape.m, rec.shape.n)
          << "syrk records use the equivalent-GEMM (n, k, n) convention";
    }
  }
  EXPECT_EQ(n_syrk, 12u);
}

TEST(Gather, FourOpCampaignCoversEveryFamily) {
  auto ex = tiny_executor();
  GatherConfig cfg = tiny_gather_config(6);
  const auto ops = blas::all_ops();
  cfg.ops.assign(ops.begin(), ops.end());
  const auto data = gather_timings(ex, cfg);
  ASSERT_EQ(data.records.size(), 6u * blas::kNumOps);
  std::size_t per_op[blas::kNumOps] = {};
  for (const auto& rec : data.records) {
    ++per_op[static_cast<std::size_t>(blas::op_code(rec.op))];
    for (double t : rec.runtime) EXPECT_GT(t, 0.0);
    if (rec.op == blas::OpKind::kSyrk) {
      EXPECT_EQ(rec.shape.m, rec.shape.n) << "syrk stores (n, k, n)";
    }
    if (rec.op == blas::OpKind::kTrsm || rec.op == blas::OpKind::kSymm) {
      EXPECT_EQ(rec.shape.m, rec.shape.k)
          << "triangular families store (n, n, m)";
    }
  }
  for (std::size_t count : per_op) EXPECT_EQ(count, 6u);
}

TEST(Gather, SyrkIsFasterThanEquivalentGemm) {
  // Same (n, k, n) shape, same threads: the simulated SYRK does roughly half
  // the kernel work, so it cannot be slower than the GEMM it proxies.
  auto ex = tiny_executor();
  const simarch::GemmShape s{600, 300, 600, 4};
  EXPECT_LT(ex.measure_op(blas::OpKind::kSyrk, s, 4),
            ex.measure_op(blas::OpKind::kGemm, s, 4));
}

TEST(Gather, VariantABCampaignMakesKernelColumnsInformative) {
  // A campaign that set_variant()s between sub-campaigns times the same
  // shapes once per kernel variant, so the kernel_* one-hots stop being
  // constant and survive the fit — closing the PR-2 gap where the columns
  // existed but never carried signal.
  const auto variants = blas::kernels::supported_variants();
  if (variants.size() < 2) {
    GTEST_SKIP() << "host supports a single kernel variant";
  }
  NativeExecutor ex(2);
  GatherConfig cfg;
  cfg.n_samples = 8;
  cfg.iterations = 1;
  cfg.thread_grid = {1, 2};
  cfg.domain.memory_cap_bytes = 4ull * 1024 * 1024;
  cfg.domain.dim_max = 256;
  cfg.domain.seed = 7;
  cfg.variants = variants;

  const auto active_before = blas::kernels::active_variant();
  const auto data = gather_timings(ex, cfg);
  EXPECT_EQ(blas::kernels::active_variant(), active_before)
      << "the campaign must restore the kernel dispatch";

  // One curve per (shape, variant), same shapes across variants.
  ASSERT_EQ(data.records.size(), 8u * variants.size());
  for (std::size_t v = 0; v < variants.size(); ++v) {
    for (std::size_t i = 0; i < 8; ++i) {
      const auto& rec = data.records[v * 8 + i];
      EXPECT_EQ(rec.variant, variants[v]);
      EXPECT_EQ(rec.shape.m, data.records[i].shape.m)
          << "variant sub-campaigns must re-time identical shapes";
    }
  }

  TrainOptions opts;
  opts.candidates = {"decision_tree"};
  opts.tune = false;
  const auto out = train_and_select(data, opts);
  bool kernel_col_kept = false;
  for (std::size_t j : out.pipeline.kept_features()) {
    if (out.pipeline.input_feature_names()[j].rfind("kernel_", 0) == 0) {
      kernel_col_kept = true;
    }
  }
  EXPECT_TRUE(kernel_col_kept)
      << "A/B campaign must keep a kernel one-hot after preprocessing";
}

TEST(Gather, VariantListRejectsAuto) {
  auto ex = tiny_executor();
  GatherConfig cfg = tiny_gather_config(5);
  cfg.variants = {blas::kernels::Variant::kAuto};
  EXPECT_THROW(gather_timings(ex, cfg), std::invalid_argument);
}

TEST(Gather, SplitPartitionsByShape) {
  auto ex = tiny_executor();
  const auto data = gather_timings(ex, tiny_gather_config(40));
  GatherData train, test;
  data.split(0.25, 1, &train, &test);
  EXPECT_EQ(train.records.size() + test.records.size(), 40u);
  EXPECT_NEAR(static_cast<double>(test.records.size()), 10.0, 3.0);
}

TEST(Gather, CsvRoundTrip) {
  auto ex = tiny_executor();
  const auto data = gather_timings(ex, tiny_gather_config(15));
  const std::string path = "/tmp/adsala_test_gather.csv";
  data.save_csv(path);
  const auto back = GatherData::load_csv(path);
  ASSERT_EQ(back.records.size(), data.records.size());
  for (std::size_t i = 0; i < data.records.size(); ++i) {
    EXPECT_EQ(back.records[i].shape.m, data.records[i].shape.m);
    EXPECT_EQ(back.records[i].threads, data.records[i].threads);
    for (std::size_t t = 0; t < data.records[i].runtime.size(); ++t) {
      EXPECT_DOUBLE_EQ(back.records[i].runtime[t],
                       data.records[i].runtime[t]);
    }
  }
  std::filesystem::remove(path);
}

TEST(Gather, CsvRoundTripKeepsOpAndVariantColumns) {
  auto ex = tiny_executor();
  GatherConfig cfg = tiny_gather_config(8);
  const auto ops = blas::all_ops();
  cfg.ops.assign(ops.begin(), ops.end());  // all four ops survive the disk
  const auto data = gather_timings(ex, cfg);
  const std::string path = "/tmp/adsala_test_gather_op.csv";
  data.save_csv(path);
  const auto back = GatherData::load_csv(path);
  ASSERT_EQ(back.records.size(), data.records.size());
  for (std::size_t i = 0; i < data.records.size(); ++i) {
    EXPECT_EQ(back.records[i].op, data.records[i].op);
    EXPECT_EQ(back.records[i].variant, data.records[i].variant);
    EXPECT_EQ(back.records[i].shape.m, data.records[i].shape.m);
    EXPECT_EQ(back.records[i].shape.k, data.records[i].shape.k);
    EXPECT_EQ(back.records[i].shape.n, data.records[i].shape.n);
  }
  std::filesystem::remove(path);
}

TEST(Gather, LegacySixColumnCsvLoadsAsGemm) {
  // PR-1-era files carry no op/variant columns; loading must default every
  // row to a generic-kernel GEMM record — also now that four operations are
  // registered (absent columns mean "gemm", not "unknown op").
  CsvTable legacy;
  legacy.header = {"m", "k", "n", "elem_bytes", "threads", "runtime"};
  legacy.rows = {{100, 200, 300, 4, 1, 0.5},
                 {100, 200, 300, 4, 2, 0.3},
                 {400, 500, 600, 4, 1, 0.9},
                 {400, 500, 600, 4, 2, 0.6}};
  const std::string path = "/tmp/adsala_test_gather_legacy.csv";
  write_csv(path, legacy);
  const auto back = GatherData::load_csv(path);
  ASSERT_EQ(back.records.size(), 2u);
  for (const auto& rec : back.records) {
    EXPECT_EQ(rec.op, blas::OpKind::kGemm);
    EXPECT_EQ(rec.variant, blas::kernels::Variant::kGeneric);
    EXPECT_EQ(rec.threads, (std::vector<int>{1, 2}));
  }
  EXPECT_DOUBLE_EQ(back.records[1].runtime[1], 0.6);
  std::filesystem::remove(path);
}

// ----------------------------------------------------------------- Trainer

class TrainerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto ex = tiny_executor();
    data_ = new GatherData(gather_timings(ex, tiny_gather_config(80)));
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }
  static GatherData* data_;
};

GatherData* TrainerTest::data_ = nullptr;

TEST_F(TrainerTest, TrainsAndSelectsBestModel) {
  TrainOptions opts;
  opts.candidates = {"linear_regression", "xgboost"};
  opts.tune = false;
  const auto out = train_and_select(*data_, opts);
  ASSERT_EQ(out.reports.size(), 2u);
  EXPECT_FALSE(out.selected.empty());
  ASSERT_NE(out.model, nullptr);
  const auto& lin = out.reports[0];
  const auto& xgb = out.reports[1];
  EXPECT_GT(lin.test_rmse_norm, 0.0);
  EXPECT_GT(xgb.test_rmse_norm, 0.0);
  // The selection follows the estimated aggregate speedup, which folds in
  // the evaluation overhead (SS IV-D) — on the tiny platform with us-scale
  // GEMMs either model may legitimately win. The winner must be the argmax.
  const auto& winner = out.selected_report();
  EXPECT_GE(winner.est_agg_speedup, lin.est_agg_speedup);
  EXPECT_GE(winner.est_agg_speedup, xgb.est_agg_speedup);
  EXPECT_GT(winner.est_mean_speedup, 1.0)
      << "thread selection must beat max-threads on the tiny platform";
  EXPECT_GT(xgb.eval_time_us, 0.0);
}

TEST_F(TrainerTest, ReportsContainSpeedupOrdering) {
  TrainOptions opts;
  opts.candidates = {"xgboost"};
  opts.tune = false;
  const auto out = train_and_select(*data_, opts);
  const auto& r = out.selected_report();
  // Estimated speedup includes the eval overhead, so it cannot exceed ideal.
  EXPECT_LE(r.est_mean_speedup, r.ideal_mean_speedup + 1e-9);
  EXPECT_LE(r.est_agg_speedup, r.ideal_agg_speedup + 1e-9);
}

TEST_F(TrainerTest, PredictBestGridIndexInRange) {
  TrainOptions opts;
  opts.candidates = {"decision_tree"};
  opts.tune = false;
  const auto out = train_and_select(*data_, opts);
  for (const auto& rec : data_->records) {
    const auto idx = predict_best_grid_index(*out.model, out.pipeline,
                                             rec.shape, rec.threads);
    EXPECT_LT(idx, rec.threads.size());
  }
}

TEST(Trainer, TooFewShapesThrows) {
  GatherData empty;
  EXPECT_THROW(train_and_select(empty, {}), std::invalid_argument);
}

// -------------------------------------------------------------- AdsalaGemm

/// Trains a small op-aware runtime (campaign over every registered
/// operation) on the tiny simulated platform.
AdsalaGemm op_aware_runtime(std::size_t n_samples = 40) {
  auto ex = tiny_executor();
  GatherConfig cfg = tiny_gather_config(n_samples);
  const auto ops = blas::all_ops();
  cfg.ops.assign(ops.begin(), ops.end());
  TrainOptions opts;
  opts.candidates = {"xgboost"};
  opts.tune = false;
  return AdsalaGemm(train_and_select(gather_timings(ex, cfg), opts));
}

TEST(AdsalaGemm, OpAwareModelSelectsFromSyrkFamilyRows) {
  auto ex = tiny_executor();
  GatherConfig cfg = tiny_gather_config(60);
  cfg.ops = {blas::OpKind::kGemm, blas::OpKind::kSyrk};
  const auto data = gather_timings(ex, cfg);
  TrainOptions opts;
  opts.candidates = {"xgboost"};
  opts.tune = false;
  AdsalaGemm adsala(train_and_select(data, opts));
  ASSERT_TRUE(adsala.op_aware());

  // The op indicator must survive preprocessing into the model input...
  bool op_col_kept = false;
  for (std::size_t j : adsala.pipeline().kept_features()) {
    const auto& name = adsala.pipeline().input_feature_names()[j];
    if (name == "op_gemm" || name == "op_syrk") op_col_kept = true;
  }
  EXPECT_TRUE(op_col_kept)
      << "mixed campaign must keep an op one-hot after preprocessing";

  // ...and actually steer the selection: over the gathered syrk family, the
  // syrk answer must differ from the GEMM-proxy answer somewhere (the
  // simulated SYRK optimum sits at fewer threads for many shapes).
  int n_diff = 0;
  for (const auto& rec : data.records) {
    if (rec.op != blas::OpKind::kSyrk) continue;
    const int p_syrk =
        adsala.select_threads(blas::OpKind::kSyrk, rec.shape.n, rec.shape.k);
    const int p_proxy =
        adsala.select_threads(rec.shape.n, rec.shape.k, rec.shape.n);
    EXPECT_GE(p_syrk, 1);
    EXPECT_LE(p_syrk, 16);
    if (p_syrk != p_proxy) ++n_diff;
  }
  EXPECT_GT(n_diff, 0)
      << "syrk-family rows must influence ssyrk thread selection";
}

TEST(AdsalaGemm, OpAwareArtefactsSurviveSaveLoad) {
  AdsalaGemm original = op_aware_runtime();
  const std::string model_path = "/tmp/adsala_test_op_model.json";
  const std::string config_path = "/tmp/adsala_test_op_config.json";
  original.save(model_path, config_path);
  AdsalaGemm restored(model_path, config_path);
  EXPECT_TRUE(restored.op_aware());
  for (long n : {64L, 300L, 900L}) {
    EXPECT_EQ(restored.select_threads(blas::OpKind::kSyrk, n, 2 * n),
              original.select_threads(blas::OpKind::kSyrk, n, 2 * n));
    EXPECT_EQ(restored.select_threads(blas::OpKind::kTrsm, n, 2 * n),
              original.select_threads(blas::OpKind::kTrsm, n, 2 * n));
    EXPECT_EQ(restored.select_threads(blas::OpKind::kSymm, n, 2 * n),
              original.select_threads(blas::OpKind::kSymm, n, 2 * n));
    EXPECT_EQ(restored.select_threads(n, n, n),
              original.select_threads(n, n, n));
  }
  std::filesystem::remove(model_path);
  std::filesystem::remove(config_path);
}

TEST(AdsalaGemm, FourOpModelServesTrsmAndSymmFirstClass) {
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

  // Over the gathered trsm/symm families the op-aware answer must be in
  // range everywhere and differ from the GEMM proxy somewhere (the model's
  // TRSM serial chain / SYMM copy surcharge move the optimum).
  int n_trsm_diff = 0, n_symm_diff = 0;
  for (const auto& rec : data.records) {
    if (rec.op == blas::OpKind::kTrsm) {
      const int p =
          adsala.select_threads(blas::OpKind::kTrsm, rec.shape.m, rec.shape.n);
      EXPECT_GE(p, 1);
      EXPECT_LE(p, 16);
      n_trsm_diff +=
          (p != adsala.select_threads(rec.shape.m, rec.shape.m, rec.shape.n));
    }
    if (rec.op == blas::OpKind::kSymm) {
      const int p =
          adsala.select_threads(blas::OpKind::kSymm, rec.shape.m, rec.shape.n);
      EXPECT_GE(p, 1);
      EXPECT_LE(p, 16);
      n_symm_diff +=
          (p != adsala.select_threads(rec.shape.m, rec.shape.m, rec.shape.n));
    }
  }
  EXPECT_GT(n_trsm_diff + n_symm_diff, 0)
      << "trsm/symm-family rows must influence thread selection";
}

TEST(AdsalaGemm, Pr2EraArtefactsProxyTrsmAndSymmAsGemm) {
  // Emulate a PR-2-era artefact: 21-column op-aware schema with gemm/syrk
  // one-hots only. Build the dataset by hand (the current builders emit 23
  // columns) from a mixed gemm+syrk campaign.
  auto ex = tiny_executor();
  GatherConfig cfg = tiny_gather_config(50);
  cfg.ops = {blas::OpKind::kGemm, blas::OpKind::kSyrk};
  const auto data = gather_timings(ex, cfg);

  std::vector<std::string> names = preprocess::feature_names();
  names.insert(names.end(),
               {"op_gemm", "op_syrk", "kernel_generic", "kernel_avx2"});
  ml::Dataset legacy_rows(names);
  for (const auto& rec : data.records) {
    for (std::size_t t = 0; t < rec.threads.size(); ++t) {
      const auto base = preprocess::make_features(
          static_cast<double>(rec.shape.m), static_cast<double>(rec.shape.k),
          static_cast<double>(rec.shape.n),
          static_cast<double>(rec.threads[t]));
      std::vector<double> row(base.begin(), base.end());
      const bool syrk = rec.op == blas::OpKind::kSyrk;
      row.insert(row.end(), {syrk ? 0.0 : 1.0, syrk ? 1.0 : 0.0, 1.0, 0.0});
      legacy_rows.add_row(row, rec.runtime[t]);
    }
  }
  TrainOutput legacy;
  legacy.selected = "decision_tree";
  legacy.thread_grid = data.thread_grid;
  legacy.max_threads = data.max_threads;
  legacy.platform = data.platform;
  preprocess::PipelineConfig pipe_cfg;
  pipe_cfg.categorical = {17, 18, 19, 20};
  legacy.pipeline = preprocess::Pipeline(pipe_cfg);
  const auto train_set = legacy.pipeline.fit_transform(legacy_rows);
  legacy.model = ml::make_model("decision_tree");
  legacy.model->fit(train_set);

  const std::string model_path = "/tmp/adsala_test_pr2_model.json";
  const std::string config_path = "/tmp/adsala_test_pr2_config.json";
  AdsalaGemm(std::move(legacy)).save(model_path, config_path);

  AdsalaGemm runtime(model_path, config_path);
  EXPECT_TRUE(runtime.op_aware()) << "gemm/syrk one-hots are informative";
  ASSERT_EQ(runtime.pipeline().n_input_features(), 21u);
  // TRSM and SYMM queries build op_gemm = 1 rows for this artefact, so
  // they must agree with the explicit GEMM query of the equivalent shape.
  for (long n : {64L, 256L, 700L}) {
    const int p_gemm = runtime.select_threads(n, n, 3 * n);
    EXPECT_EQ(runtime.select_threads(blas::OpKind::kTrsm, n, 3 * n), p_gemm);
    EXPECT_EQ(runtime.select_threads(blas::OpKind::kSymm, n, 3 * n), p_gemm);
  }
  std::filesystem::remove(model_path);
  std::filesystem::remove(config_path);
}

TEST(AdsalaGemm, LegacyGemmOnlyArtefactsFallBackToProxy) {
  // Emulate a PR-1-era artefact: pipeline + model fitted on the 17-column
  // base schema, with no op/variant columns anywhere.
  auto ex = tiny_executor();
  const auto data = gather_timings(ex, tiny_gather_config(60));
  ml::Dataset base(preprocess::feature_names());
  for (const auto& rec : data.records) {
    for (std::size_t t = 0; t < rec.threads.size(); ++t) {
      base.add_row(preprocess::make_features(
                       static_cast<double>(rec.shape.m),
                       static_cast<double>(rec.shape.k),
                       static_cast<double>(rec.shape.n),
                       static_cast<double>(rec.threads[t])),
                   rec.runtime[t]);
    }
  }
  TrainOutput legacy;
  legacy.selected = "decision_tree";
  legacy.thread_grid = data.thread_grid;
  legacy.max_threads = data.max_threads;
  legacy.platform = data.platform;
  legacy.pipeline = preprocess::Pipeline(preprocess::PipelineConfig{});
  const auto train_set = legacy.pipeline.fit_transform(base);
  legacy.model = ml::make_model("decision_tree");
  legacy.model->fit(train_set);

  const std::string model_path = "/tmp/adsala_test_legacy_model.json";
  const std::string config_path = "/tmp/adsala_test_legacy_config.json";
  AdsalaGemm(std::move(legacy)).save(model_path, config_path);

  // Loading the old-schema pair must work, and syrk queries must degrade to
  // the GEMM-proxy heuristic (identical answer to the (n, k, n) query).
  AdsalaGemm runtime(model_path, config_path);
  EXPECT_FALSE(runtime.op_aware());
  for (long n : {64L, 256L, 700L}) {
    const int p_syrk = runtime.select_threads(blas::OpKind::kSyrk, n, 3 * n);
    const int p_proxy = runtime.select_threads(n, 3 * n, n);
    EXPECT_EQ(p_syrk, p_proxy);
    EXPECT_GE(p_syrk, 1);
    EXPECT_LE(p_syrk, 16);
  }
  std::filesystem::remove(model_path);
  std::filesystem::remove(config_path);
}

TEST(AdsalaGemm, MemoInvalidatesAcrossOpsAndElemSizes) {
  AdsalaGemm adsala = op_aware_runtime();
  const long n = 500, k = 300;
  // Ground truth from the stateless predictor (no memo involved).
  auto fresh = [&](blas::OpKind op, int elem) {
    const simarch::GemmShape shape{n, k, n, elem};
    return adsala.thread_grid()[predict_best_grid_index(
        adsala.model(), adsala.pipeline(), shape, adsala.thread_grid(), op)];
  };
  const int gemm4 = fresh(blas::OpKind::kGemm, 4);
  const int syrk4 = fresh(blas::OpKind::kSyrk, 4);
  const int gemm8 = fresh(blas::OpKind::kGemm, 8);
  // Interleaved queries over the same (m, k, n) must each return their own
  // answer — a memo keyed on the shape alone would leak across ops/sizes.
  EXPECT_EQ(adsala.select_threads(n, k, n, 4), gemm4);
  EXPECT_EQ(adsala.select_threads(blas::OpKind::kSyrk, n, k, 0, 4), syrk4);
  EXPECT_EQ(adsala.select_threads(n, k, n, 4), gemm4);
  EXPECT_EQ(adsala.select_threads(n, k, n, 8), gemm8);
  EXPECT_EQ(adsala.select_threads(blas::OpKind::kSyrk, n, k, 0, 4), syrk4);
  EXPECT_EQ(adsala.select_threads(n, k, n, 4), gemm4);
  EXPECT_EQ(adsala.select_threads(n, k, n, 4), gemm4);  // memo fast path

  // TRSM and SYMM share the equivalent-GEMM shape (n, n, k): only the op
  // field of the memo key tells them apart.
  auto fresh_tri = [&](blas::OpKind op) {
    const simarch::GemmShape shape{n, n, k, 4};
    return adsala.thread_grid()[predict_best_grid_index(
        adsala.model(), adsala.pipeline(), shape, adsala.thread_grid(), op)];
  };
  const int trsm4 = fresh_tri(blas::OpKind::kTrsm);
  const int symm4 = fresh_tri(blas::OpKind::kSymm);
  EXPECT_EQ(adsala.select_threads(blas::OpKind::kTrsm, n, k, 0, 4), trsm4);
  EXPECT_EQ(adsala.select_threads(blas::OpKind::kSymm, n, k, 0, 4), symm4);
  EXPECT_EQ(adsala.select_threads(blas::OpKind::kTrsm, n, k, 0, 4), trsm4);
}

/// The decision the runtime must reproduce, computed the plain way: one
/// query row per grid point (make_query_row read in the artefact's column
/// order + transform_row), a recursive walk over the model's saved JSON
/// trees, first minimum wins.
/// Serves the two models the runtime ships with: a decision tree and
/// xgboost.
class DecisionOracle {
 public:
  explicit DecisionOracle(const AdsalaGemm& runtime) : runtime_(runtime) {
    const Json blob = runtime.model().save();
    const std::string name = blob.at("model").as_string();
    if (name == "xgboost") {
      base_ = blob.at("base_score").as_number();
      for (const Json& tree : blob.at("trees").as_array()) {
        trees_.push_back(parse(tree));
      }
    } else {
      EXPECT_EQ(name, "decision_tree");
      trees_.push_back(parse(blob));
    }
  }

  int select(blas::OpKind op, long x, long y, long z, int elem) const {
    const simarch::GemmShape shape = op_traits(op).to_shape(x, y, z, elem);
    const preprocess::Pipeline& pipeline = runtime_.pipeline();
    const std::vector<std::size_t>& columns = pipeline.schema_columns();
    const std::vector<int>& grid = runtime_.thread_grid();
    std::size_t best = 0;
    double best_pred = 0.0;
    for (std::size_t t = 0; t < grid.size(); ++t) {
      const auto canonical = preprocess::make_query_row(
          columns, static_cast<double>(shape.m), static_cast<double>(shape.k),
          static_cast<double>(shape.n), static_cast<double>(grid[t]), op,
          blas::kernels::Variant::kAuto);
      std::vector<double> raw;
      for (const std::size_t col : columns) raw.push_back(canonical[col]);
      const std::vector<double> row = pipeline.transform_row(raw);
      double pred = base_;
      for (const Tree& tree : trees_) pred += walk(tree, row, 0);
      if (t == 0 || pred < best_pred) {
        best_pred = pred;
        best = t;
      }
    }
    return grid[best];
  }

 private:
  struct Tree {
    std::vector<double> feature, threshold, value, left, right;
  };

  static Tree parse(const Json& tree) {
    return {tree.at("feature").to_doubles(), tree.at("threshold").to_doubles(),
            tree.at("value").to_doubles(), tree.at("left").to_doubles(),
            tree.at("right").to_doubles()};
  }

  static double walk(const Tree& tree, const std::vector<double>& x,
                     std::size_t node) {
    if (tree.feature[node] < 0) return tree.value[node];
    const bool go_left = x[static_cast<std::size_t>(tree.feature[node])] <=
                         tree.threshold[node];
    return walk(tree, x,
                static_cast<std::size_t>(go_left ? tree.left[node]
                                                 : tree.right[node]));
  }

  const AdsalaGemm& runtime_;
  double base_ = 0.0;
  std::vector<Tree> trees_;
};

/// 5 ops x 2 precisions x 2000 seeded shapes through select_threads, each
/// against the oracle's argmin.
void expect_decisions_match_oracle(const AdsalaGemm& runtime) {
  const DecisionOracle oracle(runtime);
  Rng rng(2026);
  // Log-uniform dims over [1, 4096]: small and large shapes alike.
  const auto dim = [&] {
    return static_cast<long>(std::exp(rng.uniform(0.0, std::log(4096.0))));
  };
  for (const blas::OpKind op : blas::all_ops()) {
    for (const int elem : {4, 8}) {
      for (int i = 0; i < 2000; ++i) {
        const long x = dim(), y = dim(), z = dim();
        ASSERT_EQ(runtime.select_threads(op, x, y, z, elem),
                  oracle.select(op, x, y, z, elem))
            << blas::op_name(op) << " " << x << "x" << y << "x" << z
            << " elem=" << elem;
      }
    }
  }
}

TEST(AdsalaGemm, FrozenTinyArtefactDecisionsMatchOracle) {
  const std::string dir = ADSALA_TINY_ARTIFACTS_DIR;
  auto loaded =
      AdsalaGemm::try_load(dir + "/model.json", dir + "/config.json");
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  ASSERT_EQ(loaded.value().model_name(), "decision_tree");
  expect_decisions_match_oracle(loaded.value());
}

TEST(AdsalaGemm, FreshXgboostDecisionsMatchOracle) {
  expect_decisions_match_oracle(op_aware_runtime());
}

TEST(AdsalaGemm, SelectThreadsMemoisesLastQuery) {
  auto ex = tiny_executor();
  auto data = gather_timings(ex, tiny_gather_config(60));
  TrainOptions opts;
  opts.candidates = {"xgboost"};
  opts.tune = false;
  AdsalaGemm adsala(train_and_select(data, opts));
  const int p1 = adsala.select_threads(100, 200, 300);
  const int p2 = adsala.select_threads(100, 200, 300);
  EXPECT_EQ(p1, p2);
  EXPECT_GE(p1, 1);
  EXPECT_LE(p1, 16);
  // Trained on a GEMM-only campaign: the constant op_* columns are dropped
  // at fit time, so the runtime must not claim operation awareness (syrk
  // queries reduce to the GEMM proxy).
  EXPECT_FALSE(adsala.op_aware());
  EXPECT_EQ(adsala.select_threads(blas::OpKind::kSyrk, 100, 200),
            adsala.select_threads(100, 200, 100));
}

TEST(AdsalaGemm, SaveLoadRoundTrip) {
  auto ex = tiny_executor();
  auto data = gather_timings(ex, tiny_gather_config(60));
  TrainOptions opts;
  opts.candidates = {"xgboost"};
  opts.tune = false;
  AdsalaGemm original(train_and_select(data, opts));
  const std::string model_path = "/tmp/adsala_test_model.json";
  const std::string config_path = "/tmp/adsala_test_config.json";
  original.save(model_path, config_path);

  AdsalaGemm restored(model_path, config_path);
  EXPECT_EQ(restored.platform(), original.platform());
  EXPECT_EQ(restored.max_threads(), original.max_threads());
  EXPECT_EQ(restored.model_name(), original.model_name());
  for (long m : {64L, 500L, 2000L}) {
    EXPECT_EQ(restored.select_threads(m, m, m),
              original.select_threads(m, m, m));
  }
  std::filesystem::remove(model_path);
  std::filesystem::remove(config_path);
}

TEST(AdsalaGemm, SgemmComputesCorrectProduct) {
  auto ex = tiny_executor();
  auto data = gather_timings(ex, tiny_gather_config(60));
  TrainOptions opts;
  opts.candidates = {"decision_tree"};
  opts.tune = false;
  AdsalaGemm adsala(train_and_select(data, opts));

  const int m = 17, n = 13, k = 11;
  std::vector<float> a(m * k), b(k * n), c(m * n, 0.0f), c_ref(m * n, 0.0f);
  for (int i = 0; i < m * k; ++i) a[i] = static_cast<float>(i % 7) - 3.0f;
  for (int i = 0; i < k * n; ++i) b[i] = static_cast<float>(i % 5) - 2.0f;
  adsala.sgemm(m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c.data(), n);
  blas::reference_gemm<float>(blas::Trans::kNo, blas::Trans::kNo, m, n, k,
                              1.0f, a.data(), k, b.data(), n, 0.0f,
                              c_ref.data(), n);
  for (int i = 0; i < m * n; ++i) EXPECT_NEAR(c[i], c_ref[i], 1e-3);
}

TEST(AdsalaGemm, SsyrkAndDsyrkComputeCorrectUpdate) {
  AdsalaGemm adsala = op_aware_runtime();
  const int n = 15, k = 9;
  std::vector<float> a(n * k);
  for (int i = 0; i < n * k; ++i) a[i] = static_cast<float>(i % 7) - 3.0f;
  std::vector<float> c(n * n, 0.0f), c_ref(n * n, 0.0f);
  adsala.ssyrk(blas::Uplo::kLower, n, k, 1.0f, a.data(), k, 0.0f, c.data(),
               n);
  blas::reference_syrk<float>(blas::Uplo::kLower, blas::Trans::kNo, n, k,
                              1.0f, a.data(), k, 0.0f, c_ref.data(), n);
  for (int i = 0; i < n * n; ++i) EXPECT_NEAR(c[i], c_ref[i], 1e-3);

  std::vector<double> ad(n * k);
  for (int i = 0; i < n * k; ++i) ad[i] = static_cast<double>(i % 5) - 2.0;
  std::vector<double> cd(n * n, 0.0), cd_ref(n * n, 0.0);
  adsala.dsyrk(blas::Uplo::kUpper, n, k, 1.0, ad.data(), k, 0.0, cd.data(),
               n);
  blas::reference_syrk<double>(blas::Uplo::kUpper, blas::Trans::kNo, n, k,
                               1.0, ad.data(), k, 0.0, cd_ref.data(), n);
  for (int i = 0; i < n * n; ++i) EXPECT_NEAR(cd[i], cd_ref[i], 1e-10);
}

TEST(AdsalaGemm, StrsmAndDsymmComputeCorrectResults) {
  AdsalaGemm adsala = op_aware_runtime();
  const int n = 15, m = 9;

  std::vector<float> a(n * n);
  for (int i = 0; i < n * n; ++i) a[i] = static_cast<float>(i % 7) - 3.0f;
  for (int i = 0; i < n; ++i) a[i * n + i] = static_cast<float>(n + 2);
  std::vector<float> b(n * m);
  for (int i = 0; i < n * m; ++i) b[i] = static_cast<float>(i % 5) - 2.0f;
  auto b_ref = b;
  adsala.strsm(blas::Uplo::kLower, blas::Trans::kNo, blas::Diag::kNonUnit, n,
               m, 1.0f, a.data(), n, b.data(), m);
  blas::reference_trsm<float>(blas::Uplo::kLower, blas::Trans::kNo,
                              blas::Diag::kNonUnit, n, m, 1.0f, a.data(), n,
                              b_ref.data(), m);
  for (int i = 0; i < n * m; ++i) EXPECT_NEAR(b[i], b_ref[i], 1e-4);

  std::vector<double> ad(n * n), bd(n * m);
  for (int i = 0; i < n * n; ++i) ad[i] = static_cast<double>(i % 7) - 3.0;
  for (int i = 0; i < n * m; ++i) bd[i] = static_cast<double>(i % 5) - 2.0;
  std::vector<double> cd(n * m, 0.0), cd_ref(n * m, 0.0);
  adsala.dsymm(blas::Uplo::kUpper, n, m, 1.0, ad.data(), n, bd.data(), m, 0.0,
               cd.data(), m);
  blas::reference_symm<double>(blas::Uplo::kUpper, n, m, 1.0, ad.data(), n,
                               bd.data(), m, 0.0, cd_ref.data(), m);
  for (int i = 0; i < n * m; ++i) EXPECT_NEAR(cd[i], cd_ref[i], 1e-10);
}

// ----------------------------------------------------------------- Install

TEST(Install, WritesArtefactsAndReportsSpeedup) {
  auto ex = tiny_executor();
  InstallOptions opts;
  opts.gather = tiny_gather_config(70);
  opts.train.candidates = {"linear_regression", "xgboost"};
  opts.train.tune = false;
  opts.output_dir = "/tmp/adsala_test_install";
  std::filesystem::create_directories(opts.output_dir);

  const auto report = install(ex, opts);
  EXPECT_TRUE(std::filesystem::exists(report.model_path));
  EXPECT_TRUE(std::filesystem::exists(report.config_path));
  EXPECT_TRUE(
      std::filesystem::exists(opts.output_dir + "/timings.csv"));
  EXPECT_GT(report.gather_seconds, 0.0);
  EXPECT_GT(report.train_seconds, 0.0);

  // The artefacts must load into a working runtime.
  AdsalaGemm runtime(report.model_path, report.config_path);
  EXPECT_EQ(runtime.platform(), "tiny");
  const int p = runtime.select_threads(128, 128, 128);
  EXPECT_GE(p, 1);
  EXPECT_LE(p, 16);

  std::filesystem::remove_all(opts.output_dir);
}

TEST(Install, RetrainsFromSavedTimingsCsvWithoutRegathering) {
  // The native-host workflow: gather once (expensive on real hardware), then
  // re-train from the saved timings.csv. The simulated gather and the CSV
  // round-trip are both exact, so the re-trained runtime must reproduce the
  // original's selections.
  auto ex = tiny_executor();
  InstallOptions opts;
  opts.gather = tiny_gather_config(70);
  opts.train.candidates = {"decision_tree"};
  opts.train.tune = false;
  opts.output_dir = "/tmp/adsala_test_install_csv";
  std::filesystem::create_directories(opts.output_dir);
  const auto first = install(ex, opts);

  InstallOptions reuse = opts;
  reuse.output_dir = "/tmp/adsala_test_install_csv2";
  reuse.reuse_timings_csv = opts.output_dir + "/timings.csv";
  std::filesystem::create_directories(reuse.output_dir);
  const auto second = install(ex, reuse);

  AdsalaGemm a(first.model_path, first.config_path);
  AdsalaGemm b(second.model_path, second.config_path);
  EXPECT_EQ(b.platform(), a.platform());
  for (long m : {64L, 500L, 2000L}) {
    EXPECT_EQ(b.select_threads(m, m, m), a.select_threads(m, m, m));
  }

  std::filesystem::remove_all(opts.output_dir);
  std::filesystem::remove_all(reuse.output_dir);
}

}  // namespace
}  // namespace adsala::core
