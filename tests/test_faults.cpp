// Fault-injection suite for the fail-safe serving layer (ISSUE 6).
//
// The contract under test: NO artefact corruption, allocation failure, or
// worker exception may crash the process. Bad artefacts map to the error
// taxonomy (common/status.h), serving degrades down the ladder
// model -> GEMM proxy -> analytic heuristic, and exceptions inside parallel
// regions rethrow on the calling thread. Every test in this binary doubles
// as a no-crash check — a std::terminate or abort anywhere fails the run.
//
// Corrupted artefacts are generated from one frozen good install (shared
// across the suite) by targeted JSON surgery, so each fixture isolates
// exactly one defect.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "adsala_daemon.h"
#include "blas/gemm.h"
#include "blas/symm.h"
#include "blas/syrk.h"
#include "blas/trmm.h"
#include "blas/trsm.h"
#include "common/csv.h"
#include "common/failpoint.h"
#include "common/json.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/adsala.h"
#include "core/executor.h"
#include "core/gather.h"
#include "core/shm_store.h"
#include "core/telemetry_log.h"
#include "core/trainer.h"

namespace adsala::core {
namespace {

// ------------------------------------------------------------ error taxonomy

TEST(Status, ErrorCodeNamesAreStable) {
  EXPECT_STREQ(error_code_name(ErrorCode::kOk), "ok");
  EXPECT_STREQ(error_code_name(ErrorCode::kNotFound), "not_found");
  EXPECT_STREQ(error_code_name(ErrorCode::kParseError), "parse_error");
  EXPECT_STREQ(error_code_name(ErrorCode::kValidationError),
               "validation_error");
  EXPECT_STREQ(error_code_name(ErrorCode::kResourceExhausted),
               "resource_exhausted");
  EXPECT_STREQ(error_code_name(ErrorCode::kInternal), "internal");
  EXPECT_STREQ(error_code_name(ErrorCode::kUnavailable), "unavailable");
  EXPECT_STREQ(error_code_name(ErrorCode::kProtocolError), "protocol_error");
  EXPECT_STREQ(error_code_name(ErrorCode::kPreconditionFailed),
               "precondition_failed");
}

TEST(Status, ExitCodesAreDistinctPerFailureClass) {
  EXPECT_EQ(exit_code_for(ErrorCode::kOk), 0);
  EXPECT_EQ(exit_code_for(ErrorCode::kNotFound), 3);
  EXPECT_EQ(exit_code_for(ErrorCode::kParseError), 4);
  EXPECT_EQ(exit_code_for(ErrorCode::kValidationError), 5);
  EXPECT_EQ(exit_code_for(ErrorCode::kResourceExhausted), 6);
  EXPECT_EQ(exit_code_for(ErrorCode::kInternal), 1);
  EXPECT_EQ(exit_code_for(ErrorCode::kUnavailable), 7);
  EXPECT_EQ(exit_code_for(ErrorCode::kProtocolError), 8);
  EXPECT_EQ(exit_code_for(ErrorCode::kPreconditionFailed), 9);
}

TEST(Status, ExpectedCarriesValueOrError) {
  Expected<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(static_cast<bool>(good));
  EXPECT_EQ(good.value(), 42);
  EXPECT_EQ(Expected<int>(41).value_or(0), 41);

  Expected<int> bad(Error{ErrorCode::kParseError, "boom"});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, ErrorCode::kParseError);
  EXPECT_EQ(bad.error().message, "boom");
  EXPECT_EQ(std::move(bad).value_or(-1), -1);
}

// --------------------------------------------------------- failpoint registry

TEST(Failpoint, ArmDisarmAndScoped) {
  EXPECT_FALSE(failpoint::triggered("arena-oom"));
  failpoint::arm("arena-oom");
  EXPECT_TRUE(failpoint::triggered("arena-oom"));
  failpoint::disarm("arena-oom");
  EXPECT_FALSE(failpoint::triggered("arena-oom"));
  {
    failpoint::Scoped fp("worker-throw");
    EXPECT_TRUE(failpoint::triggered("worker-throw"));
  }
  EXPECT_FALSE(failpoint::triggered("worker-throw"));
}

TEST(Failpoint, ReloadFromEnvParsesCommaList) {
  ::setenv("ADSALA_FAILPOINT", "json-truncate,model-nan-weight", 1);
  failpoint::reload_from_env();
  EXPECT_TRUE(failpoint::triggered("json-truncate"));
  EXPECT_TRUE(failpoint::triggered("model-nan-weight"));
  EXPECT_FALSE(failpoint::triggered("arena-oom"));
  ::unsetenv("ADSALA_FAILPOINT");
  failpoint::disarm_all();
  EXPECT_FALSE(failpoint::triggered("json-truncate"));
  EXPECT_FALSE(failpoint::triggered("model-nan-weight"));
}

// ----------------------------------------------------- corrupted-artefact kit

/// One frozen good install shared by the whole suite; each corruption test
/// copies it and applies one targeted defect.
class ArtefactCorpus : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string("/tmp/adsala_test_faults");
    std::filesystem::remove_all(*dir_);
    std::filesystem::create_directories(*dir_);
    SimulatedExecutor ex(
        simarch::MachineModel(simarch::tiny_topology(), 42));
    GatherConfig cfg;
    cfg.n_samples = 40;
    cfg.iterations = 3;
    cfg.domain.memory_cap_bytes = 64ull * 1024 * 1024;
    cfg.domain.dim_max = 8000;
    cfg.domain.seed = 7;
    TrainOptions opts;
    opts.candidates = {"decision_tree"};
    opts.tune = false;
    AdsalaGemm runtime(train_and_select(gather_timings(ex, cfg), opts));
    runtime.save(model_path(), config_path());
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete dir_;
    dir_ = nullptr;
  }

  static std::string model_path() { return *dir_ + "/model.json"; }
  static std::string config_path() { return *dir_ + "/config.json"; }

  /// Copies the good pair into a scratch dir and returns (model, config)
  /// paths there, ready for surgery.
  static std::pair<std::string, std::string> scratch_copy(
      const std::string& tag) {
    const std::string dir = *dir_ + "/" + tag;
    std::filesystem::create_directories(dir);
    std::filesystem::copy_file(
        model_path(), dir + "/model.json",
        std::filesystem::copy_options::overwrite_existing);
    std::filesystem::copy_file(
        config_path(), dir + "/config.json",
        std::filesystem::copy_options::overwrite_existing);
    return {dir + "/model.json", dir + "/config.json"};
  }

  /// Drops the trailing half of a file's bytes (a torn write).
  static void truncate_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
  }

  /// Loads a JSON artefact, applies `mutate`, writes it back.
  template <typename Fn>
  static void rewrite_json(const std::string& path, Fn mutate) {
    Json doc = read_json_file(path);
    mutate(doc);
    write_json_file(path, doc);
  }

  static ErrorCode load_error(const std::string& model,
                              const std::string& config) {
    auto result = AdsalaGemm::try_load(model, config);
    EXPECT_FALSE(result.ok());
    return result.ok() ? ErrorCode::kOk : result.error().code;
  }

  static std::string* dir_;
};

std::string* ArtefactCorpus::dir_ = nullptr;

TEST_F(ArtefactCorpus, GoodArtefactsLoadAndServeModel) {
  auto result = AdsalaGemm::try_load(model_path(), config_path());
  ASSERT_TRUE(result.ok()) << result.error().message;
  AdsalaGemm runtime = std::move(result).value();
  EXPECT_EQ(runtime.serving_mode(), ServingMode::kModelServed);
  const int p = runtime.select_threads(256, 256, 256);
  EXPECT_GE(p, 1);
  EXPECT_LE(p, runtime.max_threads());
}

TEST_F(ArtefactCorpus, SaveStampsFormatMarkers) {
  const Json model = read_json_file(model_path());
  const Json config = read_json_file(config_path());
  EXPECT_EQ(model.at("format").as_string(), "adsala/model/v1");
  EXPECT_EQ(config.at("format").as_string(), "adsala/config/v1");
}

TEST_F(ArtefactCorpus, MissingFilesReturnNotFoundWithPath) {
  auto result = AdsalaGemm::try_load("/tmp/adsala_no_such_dir/model.json",
                                     "/tmp/adsala_no_such_dir/config.json");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kNotFound);
  EXPECT_NE(result.error().message.find("/tmp/adsala_no_such_dir"),
            std::string::npos)
      << "error must name the offending path: " << result.error().message;
}

TEST_F(ArtefactCorpus, TruncatedModelReturnsParseErrorWithPath) {
  auto [model, config] = scratch_copy("truncated");
  truncate_file(model);
  auto result = AdsalaGemm::try_load(model, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kParseError);
  EXPECT_NE(result.error().message.find(model), std::string::npos)
      << result.error().message;
}

TEST_F(ArtefactCorpus, EmptyThreadGridRejected) {
  auto [model, config] = scratch_copy("empty_grid");
  rewrite_json(config,
               [](Json& doc) { doc["thread_grid"] = Json(JsonArray{}); });
  EXPECT_EQ(load_error(model, config), ErrorCode::kValidationError);
}

TEST_F(ArtefactCorpus, UnsortedThreadGridRejected) {
  auto [model, config] = scratch_copy("unsorted_grid");
  rewrite_json(config, [](Json& doc) {
    doc["thread_grid"] = Json(JsonArray{Json(4), Json(2), Json(8)});
  });
  EXPECT_EQ(load_error(model, config), ErrorCode::kValidationError);
}

TEST_F(ArtefactCorpus, NonPositiveThreadGridEntryRejected) {
  auto [model, config] = scratch_copy("zero_grid");
  rewrite_json(config, [](Json& doc) {
    doc["thread_grid"] = Json(JsonArray{Json(0), Json(2)});
  });
  EXPECT_EQ(load_error(model, config), ErrorCode::kValidationError);
}

TEST_F(ArtefactCorpus, NonPositiveMaxThreadsRejected) {
  auto [model, config] = scratch_copy("bad_max");
  rewrite_json(config, [](Json& doc) { doc["max_threads"] = Json(0); });
  EXPECT_EQ(load_error(model, config), ErrorCode::kValidationError);
}

TEST_F(ArtefactCorpus, NullModelWeightRejected) {
  // A NaN weight serialises as JSON null (the writer has no NaN literal);
  // the finite-weight walk must reject it rather than load NaNs.
  auto [model, config] = scratch_copy("nan_weight");
  rewrite_json(model, [](Json& doc) {
    bool planted = false;
    for (auto& [key, value] : doc.as_object()) {
      (void)key;
      if (planted || !value.is_array() || value.as_array().empty()) continue;
      for (auto& v : value.as_array()) {
        if (v.is_number()) {
          v = Json(nullptr);
          planted = true;
          break;
        }
      }
    }
    ASSERT_TRUE(planted) << "model blob has no numeric array to corrupt";
  });
  EXPECT_EQ(load_error(model, config), ErrorCode::kValidationError);
}

TEST_F(ArtefactCorpus, UnknownSchemaWidthRejected) {
  auto [model, config] = scratch_copy("bad_width");
  rewrite_json(config, [](Json& doc) {
    // One extra input column whose name is no query feature.
    Json& pipe = doc["pipeline"];
    pipe["feature_names"].as_array().emplace_back("op_bogus");
    pipe["lambdas"].as_array().emplace_back(1.0);
    pipe["means"].as_array().emplace_back(0.0);
    pipe["stds"].as_array().emplace_back(1.0);
  });
  const auto result = AdsalaGemm::try_load(model, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kValidationError);
  EXPECT_NE(result.error().message.find("'op_bogus'"), std::string::npos)
      << result.error().message;
}

TEST_F(ArtefactCorpus, RepeatedFeatureNameRejected) {
  auto [model, config] = scratch_copy("repeated_name");
  rewrite_json(config, [](Json& doc) {
    // kernel_avx2 twice, in place of kernel_avx512: one query feature would
    // feed two model columns.
    JsonArray& names = doc["pipeline"]["feature_names"].as_array();
    ASSERT_EQ(names.back().as_string(), "kernel_avx512");
    names.back() = Json("kernel_avx2");
  });
  const auto result = AdsalaGemm::try_load(model, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kValidationError);
  EXPECT_NE(result.error().message.find("'kernel_avx2'"), std::string::npos)
      << result.error().message;
}

TEST_F(ArtefactCorpus, ShortTreeNodeArrayRejected) {
  // The committed tiny artefacts hold a decision tree: five node arrays of
  // one length. An emptied or shortened 'threshold' must be refused by
  // name, not read past.
  const std::string tiny = ADSALA_TINY_ARTIFACTS_DIR;
  for (const std::size_t keep : {std::size_t{0}, std::size_t{5}}) {
    const std::string dir = *dir_ + "/short_threshold_" + std::to_string(keep);
    std::filesystem::create_directories(dir);
    for (const char* file : {"/model.json", "/config.json"}) {
      std::filesystem::copy_file(
          tiny + file, dir + file,
          std::filesystem::copy_options::overwrite_existing);
    }
    rewrite_json(dir + "/model.json", [keep](Json& doc) {
      JsonArray& thresholds = doc["threshold"].as_array();
      ASSERT_GT(thresholds.size(), keep);
      thresholds.resize(keep);
    });
    const auto result =
        AdsalaGemm::try_load(dir + "/model.json", dir + "/config.json");
    ASSERT_FALSE(result.ok()) << keep;
    EXPECT_EQ(result.error().code, ErrorCode::kValidationError) << keep;
    EXPECT_NE(result.error().message.find("'threshold'"), std::string::npos)
        << result.error().message;
  }
}

TEST_F(ArtefactCorpus, ShortPerColumnArrayRejected) {
  // Each per-column array must have one entry per feature_names column;
  // a short one would be read past its end at every query.
  for (const char* key : {"lambdas", "means", "stds"}) {
    auto [model, config] = scratch_copy(std::string("short_") + key);
    rewrite_json(config, [key](Json& doc) {
      JsonArray& values = doc["pipeline"][key].as_array();
      ASSERT_GT(values.size(), 5u);
      values.resize(5);
    });
    const auto result = AdsalaGemm::try_load(model, config);
    ASSERT_FALSE(result.ok()) << key;
    EXPECT_EQ(result.error().code, ErrorCode::kValidationError) << key;
    EXPECT_NE(result.error().message.find(std::string("'") + key + "'"),
              std::string::npos)
        << result.error().message;
  }
}

// Tree structure is checked when the model loads: the corpus model is a
// decision tree, whose nodes are parallel arrays at the blob's top level.
TEST_F(ArtefactCorpus, TreeChildOutOfRangeRejected) {
  auto [model, config] = scratch_copy("child_out_of_range");
  rewrite_json(model, [](Json& doc) {
    const auto n = static_cast<int>(doc["left"].as_array().size());
    ASSERT_GE(doc["feature"].as_array()[0].as_int(), 0) << "root is a leaf";
    doc["left"].as_array()[0] = Json(n + 5);
  });
  const auto result = AdsalaGemm::try_load(model, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kValidationError);
  EXPECT_NE(result.error().message.find("out of range"), std::string::npos)
      << result.error().message;
}

TEST_F(ArtefactCorpus, TreeCycleRejected) {
  auto [model, config] = scratch_copy("tree_cycle");
  rewrite_json(model, [](Json& doc) {
    // The last split node points back at the root.
    const JsonArray& features = doc["feature"].as_array();
    std::size_t last_split = 0;
    for (std::size_t i = 0; i < features.size(); ++i) {
      if (features[i].as_int() >= 0) last_split = i;
    }
    doc["right"].as_array()[last_split] = Json(0);
  });
  const auto result = AdsalaGemm::try_load(model, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kValidationError);
  EXPECT_NE(result.error().message.find("reachable twice"), std::string::npos)
      << result.error().message;
}

TEST_F(ArtefactCorpus, TreeFeatureBeyondKeptWidthRejected) {
  auto [model, config] = scratch_copy("feature_out_of_range");
  const auto kept = static_cast<int>(
      read_json_file(config).at("pipeline").at("keep").as_array().size());
  rewrite_json(model, [&](Json& doc) {
    ASSERT_GE(doc["feature"].as_array()[0].as_int(), 0) << "root is a leaf";
    doc["feature"].as_array()[0] = Json(kept);
  });
  const auto result = AdsalaGemm::try_load(model, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kValidationError);
  EXPECT_NE(result.error().message.find("pipeline keeps"), std::string::npos)
      << result.error().message;
}

TEST_F(ArtefactCorpus, KeptColumnBeyondInputWidthRejected) {
  auto [model, config] = scratch_copy("keep_out_of_range");
  rewrite_json(config, [](Json& doc) {
    Json& pipe = doc["pipeline"];
    const auto width = pipe["feature_names"].as_array().size();
    pipe["keep"].as_array().back() = Json(width);
  });
  EXPECT_EQ(load_error(model, config), ErrorCode::kValidationError);
}

TEST_F(ArtefactCorpus, UnknownFormatStampRejected) {
  auto [model, config] = scratch_copy("bad_stamp");
  rewrite_json(config,
               [](Json& doc) { doc["format"] = Json("adsala/config/v999"); });
  EXPECT_EQ(load_error(model, config), ErrorCode::kValidationError);
}

TEST_F(ArtefactCorpus, UnknownModelNameRejected) {
  auto [model, config] = scratch_copy("bad_model_name");
  rewrite_json(model,
               [](Json& doc) { doc["model"] = Json("quantum_forest"); });
  EXPECT_EQ(load_error(model, config), ErrorCode::kValidationError);
}

TEST_F(ArtefactCorpus, MissingConfigFieldRejected) {
  auto [model, config] = scratch_copy("no_grid");
  rewrite_json(config, [](Json& doc) {
    JsonObject& obj = doc.as_object();
    obj.erase("thread_grid");
  });
  EXPECT_EQ(load_error(model, config), ErrorCode::kValidationError);
}

TEST_F(ArtefactCorpus, LegacyArtefactsWithoutStampStillLoad) {
  // Pre-PR-6 artefacts carry no "format" field; absence must stay legal.
  auto [model, config] = scratch_copy("no_stamp");
  rewrite_json(model, [](Json& doc) { doc.as_object().erase("format"); });
  rewrite_json(config, [](Json& doc) { doc.as_object().erase("format"); });
  auto result = AdsalaGemm::try_load(model, config);
  EXPECT_TRUE(result.ok()) << result.error().message;
}

TEST_F(ArtefactCorpus, ThrowingConstructorReportsTryLoadMessage) {
  auto [model, config] = scratch_copy("ctor_throw");
  truncate_file(config);
  try {
    AdsalaGemm runtime(model, config);
    FAIL() << "constructor must throw on a torn config";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(config), std::string::npos);
  }
}

// ------------------------------------------------------- degraded-mode rungs

TEST_F(ArtefactCorpus, LoadOrFallbackDegradesToHeuristic) {
  Error why;
  AdsalaGemm runtime = AdsalaGemm::load_or_fallback(
      "/tmp/adsala_no_such_dir/model.json",
      "/tmp/adsala_no_such_dir/config.json", &why);
  EXPECT_EQ(why.code, ErrorCode::kNotFound);
  EXPECT_EQ(runtime.serving_mode(), ServingMode::kHeuristicFallback);
  EXPECT_EQ(runtime.platform(), "heuristic-fallback");

  // Every rung of the API keeps answering, for every registered op, with
  // grid-valid thread counts.
  for (const blas::OpKind op : blas::all_ops()) {
    for (long x : {32L, 300L, 2000L}) {
      const int p = runtime.select_threads(op, x, x, x);
      EXPECT_GE(p, 1) << blas::op_name(op);
      EXPECT_LE(p, runtime.max_threads()) << blas::op_name(op);
      bool on_grid = false;
      for (int g : runtime.thread_grid()) on_grid |= (g == p);
      EXPECT_TRUE(on_grid) << blas::op_name(op) << " answer off the grid";
    }
  }
}

TEST_F(ArtefactCorpus, LoadOrFallbackPrefersGoodArtefacts) {
  Error why{ErrorCode::kInternal, "stale"};
  AdsalaGemm runtime =
      AdsalaGemm::load_or_fallback(model_path(), config_path(), &why);
  EXPECT_TRUE(why.ok()) << why.message;
  EXPECT_EQ(runtime.serving_mode(), ServingMode::kModelServed);
}

TEST(HeuristicFallback, OccupancyRuleScalesWithShape) {
  // Fixed 16-way machine so the analytic rule is host-independent: a tiny
  // GEMM must not get more threads than a huge one (spawn/sync overheads
  // dominate small shapes in the cost model).
  AdsalaGemm runtime = AdsalaGemm::heuristic_fallback(16);
  EXPECT_EQ(runtime.serving_mode(), ServingMode::kHeuristicFallback);
  EXPECT_EQ(runtime.max_threads(), 16);
  const int p_small = runtime.select_threads(24, 24, 24);
  const int p_large = runtime.select_threads(2048, 2048, 2048);
  EXPECT_LE(p_small, p_large);
  EXPECT_GT(p_large, 1) << "a 2048^3 GEMM must parallelise";
  // Deterministic: the same query always answers the same.
  EXPECT_EQ(runtime.select_threads(2048, 2048, 2048), p_large);
}

TEST(HeuristicFallback, SaveIsRefused) {
  AdsalaGemm runtime = AdsalaGemm::heuristic_fallback(8);
  EXPECT_THROW(runtime.save("/tmp/adsala_hf_model.json",
                            "/tmp/adsala_hf_config.json"),
               std::logic_error);
}

// ----------------------------------------------- failpoints on the load path

TEST_F(ArtefactCorpus, JsonTruncateFailpointTearsTheRead) {
  failpoint::Scoped fp("json-truncate");
  auto result = AdsalaGemm::try_load(model_path(), config_path());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kParseError);
}

TEST_F(ArtefactCorpus, ModelNanWeightFailpointPoisonsTheBlob) {
  failpoint::Scoped fp("model-nan-weight");
  auto result = AdsalaGemm::try_load(model_path(), config_path());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kValidationError);
}

// --------------------------------------- exception-safe parallel regions

TEST(ThreadPoolFaults, WorkerExceptionRethrowsOnCaller) {
  // A private pool with one background worker, so the worker lane exists
  // even on a single-CPU host (the global pool would have none there).
  ThreadPool pool(1);
  ASSERT_EQ(pool.max_threads(), 2u);
  {
    failpoint::Scoped fp("worker-throw");
    EXPECT_THROW(
        pool.parallel_region(2, [](std::size_t, std::size_t) {}),
        std::runtime_error);
  }
  // The pool must come back clean: the next region runs every lane.
  std::vector<int> hits(2, 0);
  pool.parallel_region(2, [&](std::size_t tid, std::size_t) {
    hits[tid] = 1;
  });
  EXPECT_EQ(hits[0] + hits[1], 2);
}

TEST(ThreadPoolFaults, CallerLaneExceptionAlsoRethrows) {
  ThreadPool pool(3);
  const std::size_t p = pool.max_threads();
  EXPECT_THROW(pool.parallel_region(p,
                                    [](std::size_t tid, std::size_t) {
                                      if (tid == 0) {
                                        throw std::invalid_argument("lane 0");
                                      }
                                    }),
               std::invalid_argument);
  // Reusable afterwards.
  std::atomic<int> sum{0};
  pool.parallel_region(p, [&](std::size_t, std::size_t) { ++sum; });
  EXPECT_EQ(sum.load(), static_cast<int>(p));
}

// ------------------------------------------------ arena OOM degraded serving

TEST(ArenaFaults, GemmStaysCorrectWhenArenaGrowthFails) {
  // With the arena refusing to grow, the carve helpers fall back to
  // per-call buffers; the product must stay bit-correct vs the reference.
  const int m = 150, n = 130, k = 70;
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(i % 11) - 5.0f;
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<float>(i % 7) - 3.0f;
  }
  std::vector<float> c(static_cast<std::size_t>(m) * n, 1.0f);
  auto c_ref = c;
  {
    failpoint::Scoped fp("arena-oom");
    blas::sgemm(blas::Trans::kNo, blas::Trans::kNo, m, n, k, 1.0f, a.data(),
                k, b.data(), n, 0.5f, c.data(), n, 4);
  }
  blas::reference_gemm<float>(blas::Trans::kNo, blas::Trans::kNo, m, n, k,
                              1.0f, a.data(), k, b.data(), n, 0.5f,
                              c_ref.data(), n);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], c_ref[i], 1e-3f) << "at " << i;
  }
}

TEST(ArenaFaults, TrmmStaysCorrectWhenArenaGrowthFails) {
  // TRMM exercises both degraded paths at once: the shared dense-copy slab
  // and the per-participant panel carves.
  const int n = 96, m = 40;
  std::vector<double> a(static_cast<std::size_t>(n) * n);
  std::vector<double> b(static_cast<std::size_t>(n) * m);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<double>(i % 9) - 4.0;
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<double>(i % 5) - 2.0;
  }
  auto b_ref = b;
  {
    failpoint::Scoped fp("arena-oom");
    blas::dtrmm(blas::Uplo::kLower, blas::Trans::kNo, blas::Diag::kNonUnit, n,
                m, 1.5, a.data(), n, b.data(), m, 4);
  }
  blas::reference_trmm<double>(blas::Uplo::kLower, blas::Trans::kNo,
                               blas::Diag::kNonUnit, n, m, 1.5, a.data(), n,
                               b_ref.data(), m);
  for (std::size_t i = 0; i < b.size(); ++i) {
    ASSERT_NEAR(b[i], b_ref[i], 1e-9) << "at " << i;
  }
}

TEST(ArenaFaults, SyrkStaysCorrectWhenArenaGrowthFails) {
  // SYRK carves the shared op(A)^T panels and each participant's A block
  // from the arena; with growth refused both must fall back per-call and
  // keep the triangle exact, for either triangle and either orientation.
  const int n = 120, k = 60;
  std::vector<float> a(static_cast<std::size_t>(n) * k);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(i % 13) - 6.0f;
  }
  for (const auto [uplo, trans] :
       {std::pair{blas::Uplo::kLower, blas::Trans::kNo},
        std::pair{blas::Uplo::kUpper, blas::Trans::kYes}}) {
    const int lda = trans == blas::Trans::kNo ? k : n;
    std::vector<float> c(static_cast<std::size_t>(n) * n, 2.0f);
    auto c_ref = c;
    {
      failpoint::Scoped fp("arena-oom");
      blas::ssyrk(uplo, trans, n, k, 1.0f, a.data(), lda, 0.25f, c.data(), n,
                  4);
    }
    blas::reference_syrk<float>(uplo, trans, n, k, 1.0f, a.data(), lda,
                                0.25f, c_ref.data(), n);
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_NEAR(c[i], c_ref[i], 1e-3f)
          << "at " << i << " uplo=" << static_cast<int>(uplo);
    }
  }
}

TEST(ArenaFaults, TrsmStaysCorrectWhenArenaGrowthFails) {
  // TRSM degrades hardest: the solve recursion wants workspace for the
  // update GEMMs, and every carve must survive the refusal.
  const int n = 88, m = 36;
  std::vector<double> a(static_cast<std::size_t>(n) * n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      a[static_cast<std::size_t>(i) * n + j] =
          i == j ? 4.0 : static_cast<double>((i + j) % 3) - 1.0;
    }
  }
  std::vector<double> b(static_cast<std::size_t>(n) * m);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<double>(i % 5) - 2.0;
  }
  auto b_ref = b;
  {
    failpoint::Scoped fp("arena-oom");
    blas::dtrsm(blas::Uplo::kLower, blas::Trans::kNo, blas::Diag::kNonUnit, n,
                m, 1.0, a.data(), n, b.data(), m, 4);
  }
  blas::reference_trsm<double>(blas::Uplo::kLower, blas::Trans::kNo,
                               blas::Diag::kNonUnit, n, m, 1.0, a.data(), n,
                               b_ref.data(), m);
  for (std::size_t i = 0; i < b.size(); ++i) {
    ASSERT_NEAR(b[i], b_ref[i], 1e-9) << "at " << i;
  }
}

TEST(ArenaFaults, SymmStaysCorrectWhenArenaGrowthFails) {
  // SYMM expands the stored triangle while packing A (pack_a_sym), so its
  // only scratch is the packed panels; with growth refused they go
  // per-call.
  const int n = 100, m = 44;
  std::vector<float> a(static_cast<std::size_t>(n) * n, 0.0f);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      a[static_cast<std::size_t>(i) * n + j] =
          static_cast<float>((i * 3 + j) % 7) - 3.0f;
    }
  }
  std::vector<float> b(static_cast<std::size_t>(n) * m);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<float>(i % 9) - 4.0f;
  }
  std::vector<float> c(static_cast<std::size_t>(n) * m, 1.0f);
  auto c_ref = c;
  {
    failpoint::Scoped fp("arena-oom");
    blas::ssymm(blas::Uplo::kLower, n, m, 1.0f, a.data(), n, b.data(), m,
                0.5f, c.data(), m, 4);
  }
  blas::reference_symm<float>(blas::Uplo::kLower, n, m, 1.0f, a.data(), n,
                              b.data(), m, 0.5f, c_ref.data(), m);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], c_ref[i], 1e-2f) << "at " << i;
  }
}

TEST(ArenaFaults, SerialCallDegradesToo) {
  // nthreads == 1 carves from the caller's thread slab, not the shared one;
  // with growth refused, that carve falls back to a per-call buffer too.
  const int m = 64, n = 48, k = 32;
  failpoint::Scoped fp("arena-oom");

  std::vector<float> a(static_cast<std::size_t>(m) * k, 0.5f);
  std::vector<float> b(static_cast<std::size_t>(k) * n, 2.0f);
  std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
  blas::sgemm(blas::Trans::kNo, blas::Trans::kNo, m, n, k, 1.0f, a.data(), k,
              b.data(), n, 0.0f, c.data(), n, 1);
  for (float v : c) ASSERT_FLOAT_EQ(v, 0.5f * 2.0f * k);

  // SYMM and TRMM over an all-0.5 m x m A and an all-2 B: every symmetric
  // row sums to 0.5 * m * 2, and a triangle row i of the lower product
  // holds i + 1 nonzeros.
  std::vector<float> sym(static_cast<std::size_t>(m) * m, 0.5f);
  std::vector<float> b_sq(static_cast<std::size_t>(m) * n, 2.0f);
  std::fill(c.begin(), c.end(), 0.0f);
  blas::ssymm(blas::Uplo::kLower, m, n, 1.0f, sym.data(), m, b_sq.data(), n,
              0.0f, c.data(), n, 1);
  for (float v : c) ASSERT_FLOAT_EQ(v, 0.5f * 2.0f * m);

  blas::strmm(blas::Uplo::kLower, blas::Trans::kNo, blas::Diag::kNonUnit, m,
              n, 1.0f, sym.data(), m, b_sq.data(), n, 1);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      ASSERT_FLOAT_EQ(b_sq[static_cast<std::size_t>(i) * n + j],
                      0.5f * 2.0f * static_cast<float>(i + 1))
          << "trmm at (" << i << ", " << j << ")";
    }
  }

  // SYRK of the all-0.5 m x k A: every lower-triangle entry is 0.25 * k,
  // and the strict upper triangle keeps its 7s.
  std::vector<float> c_sq(static_cast<std::size_t>(m) * m, 7.0f);
  blas::ssyrk(blas::Uplo::kLower, blas::Trans::kNo, m, k, 1.0f, a.data(), k,
              0.0f, c_sq.data(), m, 1);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < m; ++j) {
      ASSERT_FLOAT_EQ(c_sq[static_cast<std::size_t>(i) * m + j],
                      j <= i ? 0.25f * k : 7.0f)
          << "syrk at (" << i << ", " << j << ")";
    }
  }
}

// ------------------------------------------- shared-memory artefact region

/// Reuses the frozen good install: publishes it into a region file, then
/// applies targeted binary surgery per test.
class ShmRegion : public ArtefactCorpus {
 protected:
  static std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  /// Publishes the corpus artefacts into a fresh region and returns its path.
  static std::string publish(const std::string& tag) {
    const std::string path = *dir_ + "/region_" + tag;
    const Error err =
        publish_shm_region(path, slurp(model_path()), slurp(config_path()));
    EXPECT_TRUE(err.ok()) << err.message;
    return path;
  }

  /// Overwrites `len` bytes at `offset` in the region file.
  static void poke(const std::string& path, std::size_t offset,
                   const void* bytes, std::size_t len) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(static_cast<const char*>(bytes),
            static_cast<std::streamsize>(len));
  }
};

TEST_F(ShmRegion, PublishAttachServesIdenticallyToFiles) {
  const std::string region = publish("good");
  auto attached = AdsalaGemm::try_attach(region);
  ASSERT_TRUE(attached.ok()) << attached.error().message;
  auto from_files = AdsalaGemm::try_load(model_path(), config_path());
  ASSERT_TRUE(from_files.ok());

  // The acceptance bar: N attachers of one region answer exactly like a
  // process that loaded the files — same model, same decisions, every op.
  EXPECT_EQ(attached.value().model_name(), from_files.value().model_name());
  EXPECT_EQ(attached.value().serving_mode(), ServingMode::kModelServed);
  for (const blas::OpKind op : blas::all_ops()) {
    for (long x : {48L, 300L, 1024L}) {
      EXPECT_EQ(attached.value().select_threads(op, x, x, x),
                from_files.value().select_threads(op, x, x, x))
          << blas::op_name(op) << " x=" << x;
    }
  }
}

TEST_F(ShmRegion, TwoAttachersShareOneGeneration) {
  const std::string region = publish("two");
  auto first = AdsalaGemm::try_attach(region);
  auto second = AdsalaGemm::try_attach(region);
  ASSERT_TRUE(first.ok()) << first.error().message;
  ASSERT_TRUE(second.ok()) << second.error().message;
  for (long x : {64L, 512L, 1500L}) {
    EXPECT_EQ(first.value().select_threads(x, x, x),
              second.value().select_threads(x, x, x));
  }
}

TEST_F(ShmRegion, RepublishBumpsGenerationMonotonically) {
  const std::string region = publish("gen");
  auto g1 = read_shm_region(region);
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(
      publish_shm_region(region, slurp(model_path()), slurp(config_path()))
          .ok());
  auto g2 = read_shm_region(region);
  ASSERT_TRUE(g2.ok());
  EXPECT_GT(g2.value().generation, g1.value().generation);
  EXPECT_EQ(g2.value().generation % 2, 0u) << "published generation is even";
}

TEST_F(ShmRegion, MissingRegionIsNotFound) {
  auto result = AdsalaGemm::try_attach(*dir_ + "/region_absent");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kNotFound);
}

TEST_F(ShmRegion, BadMagicIsValidationError) {
  const std::string region = publish("magic");
  const std::uint32_t wrong = 0xDEADBEEF;
  poke(region, 0, &wrong, sizeof(wrong));
  auto result = AdsalaGemm::try_attach(region);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kValidationError);
  EXPECT_NE(result.error().message.find("magic"), std::string::npos);
}

TEST_F(ShmRegion, WrongFormatVersionIsValidationError) {
  // Same magic base, future format version: an incompatible layout must be
  // rejected exactly like a foreign file.
  const std::string region = publish("ver");
  const std::uint32_t future = 0xAD5A1A00u | 99u;
  poke(region, 0, &future, sizeof(future));
  auto result = AdsalaGemm::try_attach(region);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kValidationError);
}

TEST_F(ShmRegion, OddGenerationIsUnavailable) {
  // A publisher that died mid-swap leaves the counter odd; attach must give
  // the retryable taxonomy row, not serve the half-written payload.
  const std::string region = publish("odd");
  std::uint64_t odd = 0;
  {
    std::ifstream in(region, std::ios::binary);
    in.seekg(8);
    in.read(reinterpret_cast<char*>(&odd), sizeof(odd));
  }
  odd |= 1;
  poke(region, 8, &odd, sizeof(odd));
  auto result = AdsalaGemm::try_attach(region);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kUnavailable);
}

TEST_F(ShmRegion, MidSwapFailpointIsUnavailable) {
  const std::string region = publish("failpoint");
  failpoint::Scoped fp("shm-mid-swap");
  auto result = AdsalaGemm::try_attach(region);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kUnavailable);
}

TEST_F(ShmRegion, TruncatedRegionIsParseError) {
  // Region cut inside the payload: header bounds point past the mapping.
  const std::string region = publish("cut");
  std::filesystem::resize_file(region, kShmHeaderBytes + 10);
  auto result = AdsalaGemm::try_attach(region);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kParseError);

  // Cut inside the *header* itself.
  std::filesystem::resize_file(region, 20);
  result = AdsalaGemm::try_attach(region);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kParseError);
}

TEST_F(ShmRegion, CorruptPayloadIsParseOrValidationError) {
  // Zero out the start of the model payload: the copied bytes survive the
  // seqlock (the region is quiescent) but fail JSON decoding downstream —
  // content validation stays the serving layer's job.
  const std::string region = publish("payload");
  const char junk[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  poke(region, kShmHeaderBytes, junk, sizeof(junk));
  auto result = AdsalaGemm::try_attach(region);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kParseError)
      << result.error().message;
}

TEST_F(ShmRegion, StampMismatchInRegionIsValidationError) {
  // Publish a pair whose config carries a future format stamp: the region
  // machinery accepts any bytes, the artefact ladder must reject them.
  auto [model, config] = scratch_copy("shm_stamp");
  rewrite_json(config,
               [](Json& doc) { doc["format"] = Json("adsala/config/v999"); });
  const std::string path = *dir_ + "/region_stamp";
  ASSERT_TRUE(publish_shm_region(path, slurp(model), slurp(config)).ok());
  auto result = AdsalaGemm::try_attach(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kValidationError);
}

TEST_F(ShmRegion, TreeCycleInRegionIsValidationError) {
  // The same tree-structure check guards try_attach: a root that is its
  // own child is rejected when the region's model compiles.
  auto [model, config] = scratch_copy("shm_cycle");
  rewrite_json(model,
               [](Json& doc) { doc["left"].as_array()[0] = Json(0); });
  const std::string path = *dir_ + "/region_cycle";
  ASSERT_TRUE(publish_shm_region(path, slurp(model), slurp(config)).ok());
  auto result = AdsalaGemm::try_attach(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kValidationError)
      << result.error().message;
}

// ------------------------------------------------- daemon protocol hardening

/// Frame-level fuzz against the daemon's pure handler: no sockets, no
/// processes — exactly the code the serve loop runs per request.
class DaemonProtocol : public ArtefactCorpus {
 protected:
  static AdsalaGemm runtime() {
    auto loaded = AdsalaGemm::try_load(model_path(), config_path());
    EXPECT_TRUE(loaded.ok());
    return std::move(loaded).value();
  }

  static std::vector<std::uint8_t> good_frame(std::uint8_t op_code = 0,
                                              std::int64_t x = 256,
                                              std::int64_t y = 256,
                                              std::int64_t z = 256) {
    daemon::Request req;
    req.op_code = op_code;
    req.x = x;
    req.y = y;
    req.z = z;
    std::vector<std::uint8_t> frame(daemon::kRequestBytes);
    daemon::encode_request(req, frame.data());
    return frame;
  }
};

TEST_F(DaemonProtocol, GoodFrameAnswersOkWithGridValidThreads) {
  const AdsalaGemm rt = runtime();
  for (const blas::OpKind op : blas::all_ops()) {
    const auto frame =
        good_frame(static_cast<std::uint8_t>(blas::op_code(op)), 300, 200, 100);
    const daemon::Ack ack =
        daemon::handle_frame(rt, frame.data(), frame.size());
    EXPECT_EQ(ack.status, ErrorCode::kOk) << blas::op_name(op);
    bool on_grid = false;
    for (int g : rt.thread_grid()) {
      on_grid |= (g == static_cast<int>(ack.threads));
    }
    EXPECT_TRUE(on_grid) << blas::op_name(op) << " answered off the grid";
    EXPECT_LE(ack.mode, 2u);
  }
}

TEST_F(DaemonProtocol, AckMatchesInProcessQuery) {
  const AdsalaGemm rt = runtime();
  const auto frame = good_frame(0, 640, 320, 160);
  const daemon::Ack ack = daemon::handle_frame(rt, frame.data(), frame.size());
  const auto decision = rt.query(blas::OpKind::kGemm, 640, 320, 160);
  EXPECT_EQ(static_cast<int>(ack.threads), decision.threads);
  EXPECT_EQ(static_cast<core::ServingMode>(ack.mode), decision.mode);
}

TEST_F(DaemonProtocol, TruncatedFramesAreProtocolErrors) {
  const AdsalaGemm rt = runtime();
  const auto frame = good_frame();
  // Every prefix of a valid frame, empty included, is a protocol error —
  // never a crash, never a served answer.
  for (std::size_t len = 0; len < daemon::kRequestBytes; ++len) {
    const daemon::Ack ack = daemon::handle_frame(rt, frame.data(), len);
    EXPECT_EQ(ack.status, ErrorCode::kProtocolError) << "len=" << len;
  }
}

TEST_F(DaemonProtocol, WrongVersionByteIsProtocolError) {
  const AdsalaGemm rt = runtime();
  auto frame = good_frame();
  for (std::uint8_t bad : {std::uint8_t{0}, std::uint8_t{2},
                           std::uint8_t{0x7F}, std::uint8_t{0xFF}}) {
    frame[0] = bad;
    const daemon::Ack ack =
        daemon::handle_frame(rt, frame.data(), frame.size());
    EXPECT_EQ(ack.status, ErrorCode::kProtocolError)
        << "version byte " << static_cast<int>(bad);
  }
}

TEST_F(DaemonProtocol, UnknownOpCodeIsProtocolError) {
  const AdsalaGemm rt = runtime();
  for (std::uint8_t code : {std::uint8_t{5}, std::uint8_t{17},
                            std::uint8_t{0xFF}}) {
    const auto frame = good_frame(code);
    const daemon::Ack ack =
        daemon::handle_frame(rt, frame.data(), frame.size());
    EXPECT_EQ(ack.status, ErrorCode::kProtocolError)
        << "op code " << static_cast<int>(code);
  }
}

TEST_F(DaemonProtocol, SemanticallyInvalidValuesAreValidationErrors) {
  const AdsalaGemm rt = runtime();
  // Element size 3 in an otherwise valid frame.
  {
    daemon::Request req;
    req.elem_bytes = 3;
    req.x = req.y = req.z = 64;
    std::vector<std::uint8_t> frame(daemon::kRequestBytes);
    daemon::encode_request(req, frame.data());
    EXPECT_EQ(daemon::handle_frame(rt, frame.data(), frame.size()).status,
              ErrorCode::kValidationError);
  }
  // Non-positive dimensions.
  for (std::int64_t bad : {std::int64_t{0}, std::int64_t{-7}}) {
    const auto frame = good_frame(0, bad, 64, 64);
    EXPECT_EQ(daemon::handle_frame(rt, frame.data(), frame.size()).status,
              ErrorCode::kValidationError)
        << "x=" << bad;
  }
}

TEST_F(DaemonProtocol, RandomFuzzNeverCrashes) {
  // 10k random frames (random lengths included): every answer must be a
  // well-formed ack, and kOk only ever pairs with a grid-valid count.
  const AdsalaGemm rt = runtime();
  std::uint64_t state = 0x5EED5EED5EED5EEDull;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int i = 0; i < 10000; ++i) {
    std::uint8_t frame[daemon::kRequestBytes];
    for (auto& b : frame) b = static_cast<std::uint8_t>(next());
    const std::size_t len = next() % (daemon::kRequestBytes + 1);
    const daemon::Ack ack = daemon::handle_frame(rt, frame, len);
    if (ack.status == ErrorCode::kOk) {
      bool on_grid = false;
      for (int g : rt.thread_grid()) {
        on_grid |= (g == static_cast<int>(ack.threads));
      }
      EXPECT_TRUE(on_grid);
    }
  }
}

TEST(DaemonCodec, AckRoundTripsThroughitsFrame) {
  daemon::Ack ack;
  ack.status = ErrorCode::kOk;
  ack.mode = 1;
  ack.threads = 12;
  std::uint8_t buf[daemon::kAckBytes];
  daemon::encode_ack(ack, buf);
  auto back = daemon::decode_ack(buf, sizeof(buf));
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_EQ(back.value().status, ErrorCode::kOk);
  EXPECT_EQ(back.value().mode, 1u);
  EXPECT_EQ(back.value().threads, 12u);
}

TEST(DaemonCodec, ShortOrGarbledAcksAreProtocolErrors) {
  std::uint8_t buf[daemon::kAckBytes] = {daemon::kProtocolVersion, 0, 0, 0,
                                         4, 0, 0, 0};
  EXPECT_FALSE(daemon::decode_ack(buf, 3).ok());
  EXPECT_EQ(daemon::decode_ack(buf, 3).error().code,
            ErrorCode::kProtocolError);
  buf[0] = 9;  // wrong protocol version in the answer
  auto bad = daemon::decode_ack(buf, sizeof(buf));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, ErrorCode::kProtocolError);
}

// ---------------------------------------------------- daemon over sockets

/// In-process serve() loops and socket-level clients. The runtime is the
/// corpus install; the committed tiny artefacts are a second model whose
/// answers differ on some shapes, which is how the reattach test tells the
/// two publishes apart.
class DaemonSocket : public ShmRegion {
 protected:
  static std::string tiny_model() {
    return std::string(ADSALA_TINY_ARTIFACTS_DIR) + "/model.json";
  }
  static std::string tiny_config() {
    return std::string(ADSALA_TINY_ARTIFACTS_DIR) + "/config.json";
  }

  static daemon::Request gemm_request(std::int64_t m, std::int64_t k,
                                      std::int64_t n) {
    daemon::Request req;
    req.op_code = static_cast<std::uint8_t>(blas::op_code(blas::OpKind::kGemm));
    req.x = m;
    req.y = k;
    req.z = n;
    return req;
  }

  /// Runs daemon::serve on its own thread; stop() ends it and joins.
  class Server {
   public:
    Server(AdsalaGemm& runtime, daemon::ServeOptions options)
        : socket_(options.socket_path) {
      std::filesystem::remove(socket_);
      options.handle_signals = false;
      options.stop = &stop_;
      thread_ = std::thread([this, &runtime, options] {
        try {
          result_ = daemon::serve(runtime, options);
        } catch (const std::exception& e) {
          result_ = Error{ErrorCode::kInternal, e.what()};
        }
        done_.store(true, std::memory_order_release);
      });
      for (int i = 0; i < 500 && !std::filesystem::exists(socket_); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    ~Server() { stop(); }
    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// True when serve() returned on its own within `ms`.
    bool returns_within(int ms) const {
      for (int waited = 0; waited < ms; waited += 5) {
        if (done_.load(std::memory_order_acquire)) return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      return done_.load(std::memory_order_acquire);
    }

    /// Sets the stop flag, wakes the accept loop with one query, joins.
    Error stop() {
      if (thread_.joinable()) {
        stop_.store(true, std::memory_order_release);
        if (!done_.load(std::memory_order_acquire)) {
          (void)daemon::query(socket_, gemm_request(64, 64, 64), 500);
        }
        thread_.join();
      }
      return result_;
    }

   private:
    std::string socket_;
    std::atomic<bool> stop_{false};
    std::atomic<bool> done_{false};
    Error result_;
    std::thread thread_;
  };

  /// A connected client socket at `path`, or -1.
  static int connect_to(const std::string& path) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }
};

TEST_F(DaemonSocket, QueryHalfClosesBeforeItsAck) {
  // A one-frame client must shut its write side down right after the
  // frame: the daemon then reads EOF as soon as it has answered, instead of
  // waiting for the client to be scheduled, read the ack and close.
  const std::string path = *dir_ + "/halfclose.sock";
  std::filesystem::remove(path);
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);

  const daemon::Request req = gemm_request(300, 200, 100);
  Expected<daemon::Ack> answer = Error{ErrorCode::kInternal, "no answer"};
  std::thread client([&] { answer = daemon::query(path, req, 5000); });

  const int conn = ::accept(listener, nullptr, nullptr);
  ASSERT_GE(conn, 0);
  std::uint8_t frame[daemon::kRequestBytes + 1];
  std::size_t got = 0;
  bool eof = false;
  // Read until EOF or a 1 s silence: the 28-byte frame, then EOF.
  for (;;) {
    pollfd pfd{conn, POLLIN, 0};
    if (::poll(&pfd, 1, 1000) <= 0) break;
    const ssize_t n = ::recv(conn, frame + got, sizeof(frame) - got, 0);
    if (n <= 0) {
      eof = n == 0;
      break;
    }
    got += static_cast<std::size_t>(n);
  }
  std::uint8_t expected[daemon::kRequestBytes];
  daemon::encode_request(req, expected);
  EXPECT_EQ(got, daemon::kRequestBytes);
  EXPECT_EQ(std::memcmp(frame, expected, daemon::kRequestBytes), 0);
  EXPECT_TRUE(eof) << "query kept its write side open after the frame";

  // The ack still reaches the half-closed client.
  daemon::Ack ack;
  ack.threads = 3;
  ack.mode = 0;
  std::uint8_t out[daemon::kAckBytes];
  daemon::encode_ack(ack, out);
  EXPECT_EQ(::send(conn, out, sizeof(out), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(out)));
  client.join();
  ::close(conn);
  ::close(listener);
  std::filesystem::remove(path);
  ASSERT_TRUE(answer.ok()) << answer.error().message;
  EXPECT_EQ(answer.value().status, ErrorCode::kOk);
  EXPECT_EQ(answer.value().threads, 3u);
}

TEST_F(DaemonSocket, IdleConnectionCountsTowardMaxRequests) {
  // A client that connects and says nothing past the io deadline is one
  // refused request: with --max-requests 2 it and one real query end the
  // loop. A connection closed before its first byte counts nothing.
  auto loaded = AdsalaGemm::try_load(model_path(), config_path());
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  AdsalaGemm runtime = std::move(loaded).value();
  daemon::ServeOptions options;
  options.socket_path = *dir_ + "/idle.sock";
  options.max_requests = 2;
  options.io_timeout_ms = 100;
  Server server(runtime, options);

  const int probe = connect_to(options.socket_path);
  ASSERT_GE(probe, 0);
  ::close(probe);  // like serve's live-socket probe: not counted
  const int silent = connect_to(options.socket_path);
  ASSERT_GE(silent, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ::close(silent);
  auto answer = daemon::query(options.socket_path, gemm_request(512, 512, 512));
  ASSERT_TRUE(answer.ok()) << answer.error().message;
  EXPECT_EQ(answer.value().status, ErrorCode::kOk);
  EXPECT_TRUE(server.returns_within(3000))
      << "serve kept waiting after one idle connection and one answer";
  EXPECT_TRUE(server.stop().ok());
}

TEST_F(DaemonSocket, ReattachAnswersFromEachNewPublish) {
  // Two models that disagree on some shape: the corpus install (A) and the
  // committed tiny artefacts (B).
  auto a = AdsalaGemm::try_load(model_path(), config_path());
  auto b = AdsalaGemm::try_load(tiny_model(), tiny_config());
  ASSERT_TRUE(a.ok()) << a.error().message;
  ASSERT_TRUE(b.ok()) << b.error().message;
  long shape = 0;
  for (long x = 16; x <= 4096 && shape == 0; x += 16) {
    if (a.value().select_threads(x, x, x) !=
        b.value().select_threads(x, x, x)) {
      shape = x;
    }
  }
  ASSERT_NE(shape, 0) << "the two models agree on every probed shape";
  const auto a_threads =
      static_cast<std::uint32_t>(a.value().select_threads(shape, shape, shape));
  const auto b_threads =
      static_cast<std::uint32_t>(b.value().select_threads(shape, shape, shape));

  const std::string region = *dir_ + "/region_reattach";
  std::filesystem::remove(region);
  const std::string a_model = slurp(model_path());
  const std::string a_config = slurp(config_path());
  const std::string b_model = slurp(tiny_model());
  const std::string b_config = slurp(tiny_config());
  ASSERT_TRUE(publish_shm_region(region, a_model, a_config).ok());
  auto attached = AdsalaGemm::try_attach(region);
  ASSERT_TRUE(attached.ok()) << attached.error().message;
  AdsalaGemm runtime = std::move(attached).value();

  daemon::ServeOptions options;
  options.socket_path = *dir_ + "/reattach.sock";
  options.reattach_shm = region;
  Server server(runtime, options);
  auto ask = [&]() -> std::uint32_t {
    auto ack = daemon::query(options.socket_path,
                             gemm_request(shape, shape, shape));
    EXPECT_TRUE(ack.ok()) << ack.error().message;
    return ack.ok() ? ack.value().threads : 0u;
  };

  EXPECT_EQ(ask(), a_threads);
  // In-place republish: the very next connection answers from B.
  ASSERT_TRUE(publish_shm_region(region, b_model, b_config).ok());
  EXPECT_EQ(ask(), b_threads);
  EXPECT_EQ(ask(), b_threads);
  // Removed and published again: a new file, generation restarted.
  std::filesystem::remove(region);
  ASSERT_TRUE(publish_shm_region(region, a_model, a_config).ok());
  EXPECT_EQ(ask(), a_threads);
  // Once more, so the new file's generation equals the one served from:
  // only the file identity tells the two publishes apart.
  std::filesystem::remove(region);
  ASSERT_TRUE(publish_shm_region(region, b_model, b_config).ok());
  EXPECT_EQ(ask(), b_threads);
  EXPECT_TRUE(server.stop().ok());
}

// ----------------------------------------------------- CSV loader hardening

TEST(CsvFaults, MalformedNumberNamesPathAndLine) {
  const std::string path = "/tmp/adsala_test_bad_number.csv";
  {
    std::ofstream out(path);
    out << "m,k,n\n1,2,3\n4,oops,6\n";
  }
  try {
    read_csv(path);
    FAIL() << "malformed cell must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path + ":3"), std::string::npos) << what;
  }
  std::filesystem::remove(path);
}

TEST(CsvFaults, ShortRowNamesPathAndLine) {
  const std::string path = "/tmp/adsala_test_short_row.csv";
  {
    std::ofstream out(path);
    out << "m,k,n\n1,2,3\n4,5\n";
  }
  try {
    read_csv(path);
    FAIL() << "ragged row must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path + ":3"), std::string::npos) << what;
    EXPECT_NE(what.find("expected 3"), std::string::npos) << what;
  }
  std::filesystem::remove(path);
}

TEST(CsvFaults, TrailingJunkRejected) {
  const std::string path = "/tmp/adsala_test_junk.csv";
  {
    std::ofstream out(path);
    out << "m,k\n1,2\n3,4x\n";
  }
  EXPECT_THROW(read_csv(path), std::runtime_error);
  std::filesystem::remove(path);
}

// ----------------------------------------------------- telemetry failpoint

TEST(TelemetryFaults, TornTailFailpointWedgesHandleAndNextOpenHeals) {
  // The crash the continual-retuning loop must survive: a writer dies (or
  // is torn by the failpoint) mid-flush. The wedged handle refuses further
  // work, and the NEXT open() truncates the torn tail so the loop keeps
  // retraining from the intact prefix.
  const std::string path = "/tmp/adsala_faults_telemetry.bin";
  std::filesystem::remove(path);
  TelemetryRecord rec;
  rec.threads = 4;
  rec.m = rec.k = rec.n = 256;
  rec.measured_ns = 1000;
  {
    auto log = TelemetryLog::open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log.value().append(rec).ok());
    ASSERT_TRUE(log.value().flush().ok());
    ASSERT_TRUE(log.value().append(rec).ok());

    failpoint::Scoped fp("telemetry-torn-tail");
    EXPECT_EQ(log.value().flush().code, ErrorCode::kInternal);
    EXPECT_EQ(log.value().append(rec).code, ErrorCode::kInternal);  // wedged
  }
  ASSERT_GT(std::filesystem::file_size(path), kTelemetryRecordBytes);

  auto healed = TelemetryLog::open(path);
  ASSERT_TRUE(healed.ok()) << healed.error().message;
  EXPECT_EQ(std::filesystem::file_size(path), kTelemetryRecordBytes);
  auto records = read_telemetry_log(path);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records.value().size(), 1u);
  std::filesystem::remove(path);
}

TEST(CsvFaults, GatherLoadCsvPropagatesLineNumbers) {
  const std::string path = "/tmp/adsala_test_gather_bad.csv";
  {
    std::ofstream out(path);
    out << "m,k,n,elem_bytes,threads,runtime\n"
        << "100,200,300,4,1,0.5\n"
        << "100,200,300,4,2,not_a_number\n";
  }
  try {
    GatherData::load_csv(path);
    FAIL() << "bad timings file must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(":3"), std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace adsala::core
