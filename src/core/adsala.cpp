#include "core/adsala.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <utility>

#include "blas/kernels/dispatch.h"
#include "common/failpoint.h"
#include "common/json.h"
#include "core/executor.h"
#include "core/op_registry.h"
#include "core/shm_store.h"
#include "preprocess/features.h"

namespace adsala::core {

namespace {

/// Format stamps written by save() and validated by try_load(). Absent
/// stamps are accepted (older artefacts lack them, and their columns are
/// read by name like any other); a *wrong* stamp means the file
/// is from an incompatible future version and must be rejected rather than
/// half-decoded.
constexpr const char* kModelFormat = "adsala/model/v1";
constexpr const char* kConfigFormat = "adsala/config/v1";

Error validation_error(const std::string& path, const std::string& what) {
  return Error{ErrorCode::kValidationError, path + ": " + what};
}

/// Rejects any non-finite number in an artefact blob. A NaN model weight
/// serialises as JSON null (the writer has no NaN literal), so null is
/// rejected too — model blobs contain no legitimate nulls.
bool all_finite(const Json& blob) {
  if (blob.is_null()) return false;
  if (blob.is_number()) return std::isfinite(blob.as_number());
  if (blob.is_array()) {
    for (const auto& v : blob.as_array()) {
      if (!all_finite(v)) return false;
    }
    return true;
  }
  if (blob.is_object()) {
    for (const auto& [key, value] : blob.as_object()) {
      (void)key;
      if (!all_finite(value)) return false;
    }
    return true;
  }
  return true;  // bools / strings carry no numeric payload
}

/// Failpoint hook: smuggles a NaN into the blob's first numeric array leaf
/// (a corrupt weight the validation walk must catch). Returns true when a
/// leaf was found.
bool inject_nan(Json& blob) {
  if (blob.is_array()) {
    for (auto& v : blob.as_array()) {
      if (v.is_number()) {
        v = Json(std::nan(""));
        return true;
      }
      if (inject_nan(v)) return true;
    }
    return false;
  }
  if (blob.is_object()) {
    for (auto& [key, value] : blob.as_object()) {
      (void)key;
      if (inject_nan(value)) return true;
    }
  }
  return false;
}

/// Builds the evaluator a snapshot answers memo misses with, from its
/// model, pipeline and thread grid (once per snapshot; installs share it).
void build_evaluator(ServingSnapshot& snap) {
  snap.evaluator = std::make_shared<const GridEvaluator>(
      make_grid_evaluator(*snap.model, snap.pipeline, snap.thread_grid));
}

/// The shared validation ladder: decoded blobs in, a ready-to-publish
/// snapshot out. try_load feeds it file contents, try_attach feeds it the
/// payloads copied out of a shared-memory region; `model_label` /
/// `config_label` qualify the error messages with wherever the bytes came
/// from (a path, or "<shm>/model.json").
Expected<std::shared_ptr<ServingSnapshot>> try_load_blobs(
    Json model_blob, const Json& cfg, const std::string& model_label,
    const std::string& config_label) {
  if (failpoint::triggered("model-nan-weight")) {
    inject_nan(model_blob);
  }

  // --- config validation (kValidationError) ------------------------------
  if (!cfg.is_object()) {
    return validation_error(config_label, "config root is not an object");
  }
  if (cfg.contains("format") &&
      (!cfg.at("format").is_string() ||
       cfg.at("format").as_string() != kConfigFormat)) {
    return validation_error(config_label, "unknown config format stamp");
  }
  for (const char* key : {"platform", "max_threads", "thread_grid",
                          "pipeline"}) {
    if (!cfg.contains(key)) {
      return validation_error(config_label,
                              std::string("missing field '") + key + "'");
    }
  }
  if (!cfg.at("platform").is_string() ||
      !cfg.at("max_threads").is_number() ||
      !cfg.at("thread_grid").is_array() || !cfg.at("pipeline").is_object()) {
    return validation_error(config_label, "field with wrong type");
  }
  const int max_threads = cfg.at("max_threads").as_int();
  if (max_threads < 1) {
    return validation_error(config_label, "max_threads must be positive");
  }
  const auto& grid_json = cfg.at("thread_grid").as_array();
  if (grid_json.empty()) {
    return validation_error(config_label, "thread_grid is empty");
  }
  std::vector<int> thread_grid;
  thread_grid.reserve(grid_json.size());
  for (const auto& v : grid_json) {
    if (!v.is_number() || !std::isfinite(v.as_number()) ||
        v.as_number() != std::floor(v.as_number())) {
      return validation_error(config_label,
                              "thread_grid entry is not an integer");
    }
    const int p = v.as_int();
    if (p < 1) {
      return validation_error(config_label,
                              "thread_grid entry must be positive");
    }
    if (!thread_grid.empty() && p <= thread_grid.back()) {
      return validation_error(config_label,
                              "thread_grid must be strictly increasing");
    }
    thread_grid.push_back(p);
  }
  if (thread_grid.back() > max_threads) {
    return validation_error(config_label,
                            "thread_grid exceeds max_threads");
  }

  preprocess::Pipeline pipeline;
  try {
    pipeline.load(cfg.at("pipeline"));
  } catch (const std::exception& e) {
    return validation_error(config_label,
                            std::string("malformed pipeline section: ") +
                                e.what());
  }
  // Queries are built by column name, so every input column must name a
  // query feature, once.
  const std::vector<std::size_t>& columns = pipeline.schema_columns();
  for (auto col = columns.begin(); col != columns.end(); ++col) {
    const bool unknown = *col == preprocess::kNoSchemaColumn;
    if (unknown || std::find(columns.begin(), col, *col) != col) {
      return validation_error(
          config_label,
          std::string(unknown ? "unknown" : "repeated") +
              " feature column '" +
              pipeline.input_feature_names()[col - columns.begin()] + "'");
    }
  }

  // --- model validation (kValidationError) --------------------------------
  if (!model_blob.is_object() || !model_blob.contains("model") ||
      !model_blob.at("model").is_string()) {
    return validation_error(model_label, "missing 'model' name field");
  }
  if (model_blob.contains("format") &&
      (!model_blob.at("format").is_string() ||
       model_blob.at("format").as_string() != kModelFormat)) {
    return validation_error(model_label, "unknown model format stamp");
  }
  if (!all_finite(model_blob)) {
    return validation_error(
        model_label, "non-finite model weight (NaN serialises as null)");
  }
  for (std::size_t j : pipeline.kept_features()) {
    if (j >= pipeline.n_input_features()) {
      return validation_error(config_label,
                              "pipeline keeps column " + std::to_string(j) +
                                  " beyond its input width");
    }
  }
  std::unique_ptr<ml::Regressor> model;
  try {
    // Loading a tree model compiles its flat form, which rejects a child
    // index out of range, a cycle and a shared child.
    model = ml::load_model(model_blob);
  } catch (const std::exception& e) {
    return validation_error(model_label, e.what());
  }
  if (model->input_width() > pipeline.kept_features().size()) {
    return validation_error(
        model_label,
        "model reads feature " + std::to_string(model->input_width() - 1) +
            " but the pipeline keeps " +
            std::to_string(pipeline.kept_features().size()) + " columns");
  }

  // --- all checks passed: freeze a snapshot -------------------------------
  auto snap = std::make_shared<ServingSnapshot>();
  snap->version = 1;
  snap->model = std::shared_ptr<const ml::Regressor>(std::move(model));
  snap->model_name = model_blob.at("model").as_string();
  snap->pipeline = std::move(pipeline);
  snap->platform = cfg.at("platform").as_string();
  snap->max_threads = max_threads;
  snap->thread_grid = std::move(thread_grid);
  build_evaluator(*snap);
  return snap;
}

/// Freezes a finished training run into a publishable snapshot.
std::shared_ptr<ServingSnapshot> snapshot_from(TrainOutput trained) {
  auto snap = std::make_shared<ServingSnapshot>();
  snap->version = 1;
  snap->model =
      std::shared_ptr<const ml::Regressor>(std::move(trained.model));
  snap->pipeline = std::move(trained.pipeline);
  snap->thread_grid = std::move(trained.thread_grid);
  snap->max_threads = trained.max_threads;
  snap->platform = std::move(trained.platform);
  snap->model_name = std::move(trained.selected);
  build_evaluator(*snap);
  return snap;
}

}  // namespace

AdsalaGemm::AdsalaGemm(std::shared_ptr<const ServingSnapshot> first) {
  generations_.push_back(std::move(first));
  active_.store(generations_.back().get(), std::memory_order_release);
}

AdsalaGemm::AdsalaGemm(TrainOutput trained)
    : AdsalaGemm(snapshot_from(std::move(trained))) {}

AdsalaGemm::AdsalaGemm(const std::string& model_path,
                       const std::string& config_path) {
  auto loaded = try_load(model_path, config_path);
  if (!loaded.ok()) throw std::runtime_error(loaded.error().message);
  *this = std::move(loaded).value();
}

AdsalaGemm::AdsalaGemm(AdsalaGemm&& other) noexcept
    : generations_(std::move(other.generations_)),
      samplers_(std::move(other.samplers_)) {
  active_.store(other.active_.load(std::memory_order_acquire),
                std::memory_order_release);
  other.active_.store(nullptr, std::memory_order_release);
  sampler_.store(other.sampler_.load(std::memory_order_acquire),
                 std::memory_order_release);
  other.sampler_.store(nullptr, std::memory_order_release);
}

AdsalaGemm& AdsalaGemm::operator=(AdsalaGemm&& other) noexcept {
  if (this != &other) {
    generations_ = std::move(other.generations_);
    samplers_ = std::move(other.samplers_);
    active_.store(other.active_.load(std::memory_order_acquire),
                  std::memory_order_release);
    other.active_.store(nullptr, std::memory_order_release);
    sampler_.store(other.sampler_.load(std::memory_order_acquire),
                   std::memory_order_release);
    other.sampler_.store(nullptr, std::memory_order_release);
  }
  return *this;
}

Expected<AdsalaGemm> AdsalaGemm::try_load(const std::string& model_path,
                                          const std::string& config_path) {
  // Decode both files (kNotFound / kParseError, path-qualified), then run
  // the shared validation ladder.
  auto model_blob = try_read_json_file(model_path);
  if (!model_blob.ok()) return model_blob.error();
  auto config = try_read_json_file(config_path);
  if (!config.ok()) return config.error();

  auto snap = try_load_blobs(std::move(model_blob).value(), config.value(),
                             model_path, config_path);
  if (!snap.ok()) return snap.error();
  return AdsalaGemm(std::move(snap).value());
}

Expected<AdsalaGemm> AdsalaGemm::try_attach(const std::string& shm_path) {
  auto artefacts = read_shm_region(shm_path);
  if (!artefacts.ok()) return artefacts.error();

  // The region carries raw bytes; decode failures here mean a torn or
  // corrupted payload (the seqlock makes that unlikely but a crashed
  // publisher can leave one behind).
  Json model_blob;
  Json config;
  try {
    model_blob = Json::parse(artefacts.value().model_json);
  } catch (const std::exception& e) {
    return Error{ErrorCode::kParseError,
                 shm_path + "/model: " + e.what()};
  }
  try {
    config = Json::parse(artefacts.value().config_json);
  } catch (const std::exception& e) {
    return Error{ErrorCode::kParseError,
                 shm_path + "/config: " + e.what()};
  }

  auto snap = try_load_blobs(std::move(model_blob), config,
                             shm_path + "/model", shm_path + "/config");
  if (!snap.ok()) return snap.error();
  return AdsalaGemm(std::move(snap).value());
}

AdsalaGemm AdsalaGemm::load_or_fallback(const std::string& model_path,
                                        const std::string& config_path,
                                        Error* why) {
  auto loaded = try_load(model_path, config_path);
  if (loaded.ok()) {
    if (why != nullptr) *why = Error{};
    return std::move(loaded).value();
  }
  if (why != nullptr) *why = loaded.error();
  return heuristic_fallback();
}

AdsalaGemm AdsalaGemm::heuristic_fallback(int max_threads) {
  const int hw = max_threads > 0
                     ? max_threads
                     : static_cast<int>(
                           std::max(1u, std::thread::hardware_concurrency()));
  // A host-shaped single-socket topology over the default cost literals:
  // the analytic model then reproduces the qualitative occupancy rule
  // (memory-bound small shapes want few threads, compute-bound large ones
  // want the machine) without any trained artefact.
  simarch::CpuTopology topo;
  topo.name = "heuristic";
  topo.sockets = 1;
  topo.numa_per_socket = 1;
  topo.smt_per_core = hw >= 2 ? 2 : 1;
  topo.cores_per_socket = std::max(1, hw / topo.smt_per_core);

  auto snap = std::make_shared<ServingSnapshot>();
  snap->version = 1;
  snap->fallback_model = std::make_shared<simarch::MachineModel>(topo);
  snap->max_threads = hw;
  snap->thread_grid = default_thread_grid(hw);
  snap->platform = "heuristic-fallback";
  snap->model_name = "heuristic";
  return AdsalaGemm(std::move(snap));
}

std::uint64_t AdsalaGemm::publish(std::shared_ptr<ServingSnapshot> next) {
  std::lock_guard<std::mutex> lock(install_mu_);
  next->version = generations_.back()->version + 1;
  generations_.push_back(std::move(next));
  active_.store(generations_.back().get(), std::memory_order_release);
  return generations_.back()->version;
}

std::uint64_t AdsalaGemm::install(TrainOutput trained) {
  return publish(snapshot_from(std::move(trained)));
}

std::uint64_t AdsalaGemm::install(
    std::shared_ptr<const ServingSnapshot> source) {
  // Clone the metadata, share the (immutable) model, evaluator and
  // fallback, start a fresh memo: stale decisions from the previous
  // generation must never answer queries against the new one.
  auto next = std::make_shared<ServingSnapshot>();
  next->model = source->model;
  next->evaluator = source->evaluator;
  next->pipeline = source->pipeline;
  next->fallback_model = source->fallback_model;
  next->thread_grid = source->thread_grid;
  next->max_threads = source->max_threads;
  next->platform = source->platform;
  next->model_name = source->model_name;
  return publish(std::move(next));
}

std::shared_ptr<const ServingSnapshot> AdsalaGemm::snapshot() const {
  std::lock_guard<std::mutex> lock(install_mu_);
  return generations_.back();
}

std::vector<std::uint64_t> AdsalaGemm::retained_versions() const {
  std::lock_guard<std::mutex> lock(install_mu_);
  std::vector<std::uint64_t> out;
  out.reserve(generations_.size());
  for (const auto& gen : generations_) out.push_back(gen->version);
  return out;
}

std::shared_ptr<const ServingSnapshot> AdsalaGemm::snapshot_at(
    std::uint64_t version) const {
  std::lock_guard<std::mutex> lock(install_mu_);
  for (const auto& gen : generations_) {
    if (gen->version == version) return gen;
  }
  return nullptr;
}

std::size_t AdsalaGemm::evict_below(std::uint64_t version) {
  std::lock_guard<std::mutex> lock(install_mu_);
  const ServingSnapshot* current = active_.load(std::memory_order_acquire);
  const std::size_t before = generations_.size();
  generations_.erase(
      std::remove_if(generations_.begin(), generations_.end(),
                     [&](const std::shared_ptr<const ServingSnapshot>& gen) {
                       return gen->version < version && gen.get() != current;
                     }),
      generations_.end());
  return before - generations_.size();
}

void AdsalaGemm::enable_sampling(std::shared_ptr<TelemetryLog> log,
                                 std::uint32_t one_in_n) {
  auto next = std::make_shared<TelemetrySampler>();
  next->log = std::move(log);
  std::uint64_t period = 1;
  while (period < std::max<std::uint32_t>(one_in_n, 1)) period <<= 1;
  next->mask = period - 1;
  std::lock_guard<std::mutex> lock(install_mu_);
  samplers_.push_back(std::move(next));
  sampler_.store(samplers_.back().get(), std::memory_order_release);
}

void AdsalaGemm::disable_sampling() {
  std::lock_guard<std::mutex> lock(install_mu_);
  sampler_.store(nullptr, std::memory_order_release);
}

bool AdsalaGemm::sample_tick_slow(std::uint64_t& countdown) const {
  const TelemetrySampler* s = sampler_.load(std::memory_order_acquire);
  if (s == nullptr) {
    countdown = kSamplerOffRecheckCalls;
    return false;
  }
  countdown = s->mask + 1;
  s->ticks.fetch_add(s->mask + 1, std::memory_order_relaxed);
  return true;
}

void AdsalaGemm::record_sample(blas::OpKind op, long x, long y, long z,
                               int elem_bytes, int threads,
                               std::uint64_t measured_ns) const {
  const TelemetrySampler* s = sampler_.load(std::memory_order_acquire);
  if (s == nullptr || s->log == nullptr) return;
  const simarch::GemmShape shape = op_traits(op).to_shape(x, y, z, elem_bytes);
  TelemetryRecord rec;
  rec.op = op;
  rec.elem_bytes = elem_bytes;
  rec.kernel = blas::kernels::active_variant();
  rec.threads = threads;
  rec.m = shape.m;
  rec.k = shape.k;
  rec.n = shape.n;
  rec.measured_ns = measured_ns;
  rec.model_version = active()->version;
  if (s->log->append(rec).ok()) {
    s->recorded.fetch_add(1, std::memory_order_relaxed);
  } else {
    s->dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

std::uint64_t AdsalaGemm::samples_recorded() const {
  const TelemetrySampler* s = sampler_.load(std::memory_order_acquire);
  return s != nullptr ? s->recorded.load(std::memory_order_relaxed) : 0;
}

std::uint64_t AdsalaGemm::samples_dropped() const {
  const TelemetrySampler* s = sampler_.load(std::memory_order_acquire);
  return s != nullptr ? s->dropped.load(std::memory_order_relaxed) : 0;
}

ServingMode AdsalaGemm::serving_mode(blas::OpKind op) const {
  return active()->mode_for(op);
}

void AdsalaGemm::save(const std::string& model_path,
                      const std::string& config_path) const {
  const ServingSnapshot* snap = active();
  if (snap->model == nullptr) {
    throw std::logic_error(
        "AdsalaGemm::save: heuristic fallback has no artefacts to save");
  }
  Json model_blob = snap->model->save();
  model_blob["format"] = Json(kModelFormat);
  write_json_file(model_path, model_blob);
  Json config;
  config["format"] = Json(kConfigFormat);
  config["platform"] = Json(snap->platform);
  config["max_threads"] = Json(snap->max_threads);
  JsonArray grid;
  for (int p : snap->thread_grid) grid.emplace_back(p);
  config["thread_grid"] = Json(std::move(grid));
  config["pipeline"] = snap->pipeline.save();
  config["model_name"] = Json(snap->model_name);
  write_json_file(config_path, config);
}

int AdsalaGemm::select_threads(blas::OpKind op, long x, long y, long z,
                               int elem_bytes) const {
  // The registry canonicalises the family coordinates into the stored
  // equivalent-GEMM shape, which serves every artefact: an op-aware
  // pipeline differentiates via the op_* one-hots, one without the op's
  // column sees the plain GEMM-proxy query of the same shape, and the
  // heuristic fallback applies its occupancy rule to the same
  // equivalent-GEMM work.
  const simarch::GemmShape shape = op_traits(op).to_shape(x, y, z, elem_bytes);
  return active()->select_threads(op, shape.m, shape.k, shape.n, elem_bytes);
}

int AdsalaGemm::select_threads(long m, long k, long n, int elem_bytes) const {
  return active()->select_threads(blas::OpKind::kGemm, m, k, n, elem_bytes);
}

AdsalaGemm::Decision AdsalaGemm::query(blas::OpKind op, long x, long y,
                                       long z, int elem_bytes) const {
  // One snapshot read for the whole answer: threads, rung and version are
  // guaranteed mutually consistent even while install() races this call.
  const ServingSnapshot* snap = active();
  const simarch::GemmShape shape = op_traits(op).to_shape(x, y, z, elem_bytes);
  Decision d;
  d.threads = snap->select_threads(op, shape.m, shape.k, shape.n, elem_bytes);
  d.mode = snap->mode_for(op);
  d.version = snap->version;
  return d;
}

namespace {

/// Shared sampling shim for the BLAS execution wrappers: when this call
/// lands on a 1-in-N sampling tick, wall-time it and append the telemetry
/// record; otherwise run it untouched. The unsampled path adds exactly the
/// sample_tick() gate on top of PR 7's decision cost.
template <typename Fn>
void run_sampled(const AdsalaGemm& runtime, blas::OpKind op, long x, long y,
                 long z, int elem_bytes, int threads, Fn&& call) {
  if (!runtime.sample_tick()) {
    call();
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  call();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  runtime.record_sample(
      op, x, y, z, elem_bytes, threads,
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()));
}

}  // namespace

void AdsalaGemm::sgemm(int m, int n, int k, float alpha, const float* a,
                       int lda, const float* b, int ldb, float beta, float* c,
                       int ldc) {
  const int p = select_threads(m, k, n, 4);
  run_sampled(*this, blas::OpKind::kGemm, m, k, n, 4, p, [&] {
    blas::sgemm(blas::Trans::kNo, blas::Trans::kNo, m, n, k, alpha, a, lda, b,
                ldb, beta, c, ldc, p);
  });
}

void AdsalaGemm::dgemm(int m, int n, int k, double alpha, const double* a,
                       int lda, const double* b, int ldb, double beta,
                       double* c, int ldc) {
  const int p = select_threads(m, k, n, 8);
  run_sampled(*this, blas::OpKind::kGemm, m, k, n, 8, p, [&] {
    blas::dgemm(blas::Trans::kNo, blas::Trans::kNo, m, n, k, alpha, a, lda, b,
                ldb, beta, c, ldc, p);
  });
}

void AdsalaGemm::ssyrk(blas::Uplo uplo, int n, int k, float alpha,
                       const float* a, int lda, float beta, float* c,
                       int ldc) {
  const int p = select_threads(blas::OpKind::kSyrk, n, k, 0, 4);
  run_sampled(*this, blas::OpKind::kSyrk, n, k, 0, 4, p, [&] {
    blas::ssyrk(uplo, blas::Trans::kNo, n, k, alpha, a, lda, beta, c, ldc, p);
  });
}

void AdsalaGemm::dsyrk(blas::Uplo uplo, int n, int k, double alpha,
                       const double* a, int lda, double beta, double* c,
                       int ldc) {
  const int p = select_threads(blas::OpKind::kSyrk, n, k, 0, 8);
  run_sampled(*this, blas::OpKind::kSyrk, n, k, 0, 8, p, [&] {
    blas::dsyrk(uplo, blas::Trans::kNo, n, k, alpha, a, lda, beta, c, ldc, p);
  });
}

void AdsalaGemm::strsm(blas::Uplo uplo, blas::Trans trans, blas::Diag diag,
                       int n, int m, float alpha, const float* a, int lda,
                       float* b, int ldb) {
  const int p = select_threads(blas::OpKind::kTrsm, n, m, 0, 4);
  run_sampled(*this, blas::OpKind::kTrsm, n, m, 0, 4, p, [&] {
    blas::strsm(uplo, trans, diag, n, m, alpha, a, lda, b, ldb, p);
  });
}

void AdsalaGemm::dtrsm(blas::Uplo uplo, blas::Trans trans, blas::Diag diag,
                       int n, int m, double alpha, const double* a, int lda,
                       double* b, int ldb) {
  const int p = select_threads(blas::OpKind::kTrsm, n, m, 0, 8);
  run_sampled(*this, blas::OpKind::kTrsm, n, m, 0, 8, p, [&] {
    blas::dtrsm(uplo, trans, diag, n, m, alpha, a, lda, b, ldb, p);
  });
}

void AdsalaGemm::ssymm(blas::Uplo uplo, int n, int m, float alpha,
                       const float* a, int lda, const float* b, int ldb,
                       float beta, float* c, int ldc) {
  const int p = select_threads(blas::OpKind::kSymm, n, m, 0, 4);
  run_sampled(*this, blas::OpKind::kSymm, n, m, 0, 4, p, [&] {
    blas::ssymm(uplo, n, m, alpha, a, lda, b, ldb, beta, c, ldc, p);
  });
}

void AdsalaGemm::dsymm(blas::Uplo uplo, int n, int m, double alpha,
                       const double* a, int lda, const double* b, int ldb,
                       double beta, double* c, int ldc) {
  const int p = select_threads(blas::OpKind::kSymm, n, m, 0, 8);
  run_sampled(*this, blas::OpKind::kSymm, n, m, 0, 8, p, [&] {
    blas::dsymm(uplo, n, m, alpha, a, lda, b, ldb, beta, c, ldc, p);
  });
}

}  // namespace adsala::core
