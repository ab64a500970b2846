// ADSALA runtime library (paper Fig. 3).
//
// AdsalaGemm wraps the installation-produced artefacts — trained model +
// preprocessing/config — in a C++ class. At each BLAS call it evaluates the
// model for every candidate thread count, picks the argmin, and runs the
// call with that many threads. Recent (op, shape) -> threads decisions are
// memoised, so loops over fixed shapes pay the model cost once
// (SS III-C: "the software will read and apply the predictions from the
// responsible class attributes without re-evaluation").
//
// Serving is snapshot-based (core/snapshot.h): all loaded state lives in an
// immutable ServingSnapshot published through one atomic pointer, so
// select_threads takes no mutex and is safe to call from any number of
// threads. install() hot-swaps a new generation in (version bump); queries
// already in flight finish on the old snapshot, which stays alive for the
// runtime's lifetime. This is the serve side of the tuning-as-a-service
// design — the same runtime object backs the `adsala_cli serve` daemon and
// any in-process caller concurrently.
//
// Queries are built against the feature schema the installed pipeline was
// fitted with (the single source of truth is preprocess/features.h): its
// columns are matched to the canonical schema by name, and any operation
// without an op_* column in the artefact — every operation, for an
// artefact that predates the op one-hots — transparently degrades to
// the GEMM-proxy heuristic: the model is queried with the equivalent-work
// shape (SYRK: (n, k, n); TRSM/SYMM/TRMM: (n, n, m)), whose parallel
// structure transfers approximately.
//
// Fail-safe serving: try_load validates artefacts without throwing,
// try_attach applies the same ladder to a shared-memory region
// (core/shm_store.h), and load_or_fallback degrades to a built-in analytic
// occupancy heuristic when artefacts are missing or corrupt, so a drop-in
// sgemm replacement can promise "never crashes on a bad install".
// serving_mode() reports which rung of the ladder (model -> GEMM proxy ->
// heuristic) answered.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "blas/gemm.h"
#include "blas/op.h"
#include "blas/symm.h"
#include "blas/syrk.h"
#include "blas/trsm.h"
#include "common/status.h"
#include "core/snapshot.h"
#include "core/telemetry_log.h"
#include "core/trainer.h"

namespace adsala::core {

/// How often a thread with sampling OFF re-reads the sampler pointer from
/// its gate slow path (see sample_tick): enabling sampling becomes visible
/// to a hot thread within this many of its calls. Small enough to react in
/// microseconds at serve rates, large enough that the off path stays one
/// thread-local decrement per call.
inline constexpr std::uint64_t kSamplerOffRecheckCalls = 1024;

/// One generation of serve-time sampler state (continual-retuning loop).
/// Published through an atomic pointer and retained like snapshots, so
/// enable/disable is safe under concurrent queries. The gate's per-call
/// path is a thread-local countdown decrement and a branch — no division,
/// no lock, no shared-cacheline RMW, not even a sampler-pointer load (a
/// per-call fetch_add on a shared counter, or two dependent loads, cost
/// more than the whole ~4 ns memo-hit path; the global tick counter is
/// instead bumped by a whole period at once on the 1-in-N firing ticks,
/// so it stays accurate while the per-call cost amortises to ~nothing).
struct TelemetrySampler {
  std::shared_ptr<TelemetryLog> log;
  /// 1-in-N sampling with N rounded UP to a power of two, stored as N-1.
  std::uint64_t mask = 1023;
  /// Approximate gated-call count: bumped by mask+1 per firing tick.
  mutable std::atomic<std::uint64_t> ticks{0};
  mutable std::atomic<std::uint64_t> recorded{0};
  /// Samples lost to log append failures. Telemetry must never break
  /// serving, so a failed append drops the sample and counts it here.
  mutable std::atomic<std::uint64_t> dropped{0};
};

/// Writes the two installation artefacts: model_path gets model.save()
/// (docs/PIPELINE.md §5) and config_path the serving configuration, each
/// stamped with the format marker try_load validates ("adsala/model/v1",
/// "adsala/config/v1"). install() writes a fresh training run through it,
/// AdsalaGemm::save its active generation. Throws std::runtime_error on an
/// I/O failure.
void save_artefacts(const std::string& model_path,
                    const std::string& config_path,
                    const ml::Regressor& model, const std::string& model_name,
                    const preprocess::Pipeline& pipeline,
                    const std::vector<int>& thread_grid, int max_threads,
                    const std::string& platform);

class AdsalaGemm {
 public:
  /// One answer with the generation that produced it, so callers (the
  /// daemon, the concurrency tests) can report a rung that is guaranteed
  /// consistent with the thread count — both come from one snapshot read.
  struct Decision {
    int threads = 0;
    ServingMode mode = ServingMode::kHeuristicFallback;
    std::uint64_t version = 0;
  };

  /// Builds directly from a finished training run.
  explicit AdsalaGemm(TrainOutput trained);

  /// Loads the two installation artefacts (paper Fig. 2 outputs); throws
  /// std::runtime_error with the try_load error message on any failure.
  AdsalaGemm(const std::string& model_path, const std::string& config_path);

  /// Non-throwing artefact loading with full validation: missing files map
  /// to kNotFound, undecodable ones to kParseError (path-qualified), and
  /// decodable-but-unusable ones to kValidationError — unknown format
  /// stamp, unknown model name, an unknown or repeated feature column name,
  /// a per-column pipeline array (lambdas, means, stds) whose length is not
  /// the column count, empty or non-positive or unsorted thread_grid,
  /// non-positive max_threads, non-finite model weights. Construction only
  /// happens after every check passes, so a failed load leaves no
  /// half-initialised runtime behind.
  static Expected<AdsalaGemm> try_load(const std::string& model_path,
                                       const std::string& config_path);

  /// Attaches to a published shared-memory artefact region
  /// (core/shm_store.h): copies one stable generation of payloads out under
  /// the region's seqlock, then runs them through the exact same validation
  /// ladder as try_load. Adds the region failure classes on top: kNotFound
  /// (no region), kValidationError (bad magic / stamp), kParseError (torn
  /// region or payload), kUnavailable (generation counter mid-swap).
  static Expected<AdsalaGemm> try_attach(const std::string& shm_path);

  /// The fail-safe entry point for serving: try_load, and on ANY failure a
  /// degraded runtime whose serving_mode() is kHeuristicFallback (the
  /// analytic occupancy rule below). Never throws for artefact problems;
  /// `why` (optional) receives the load error, kOk on success.
  static AdsalaGemm load_or_fallback(const std::string& model_path,
                                     const std::string& config_path,
                                     Error* why = nullptr);

  /// A model-less runtime answering every query from the analytic
  /// occupancy heuristic. `max_threads` <= 0 means hardware concurrency.
  static AdsalaGemm heuristic_fallback(int max_threads = 0);

  /// Moves are setup-time operations: not safe concurrently with queries.
  AdsalaGemm(AdsalaGemm&& other) noexcept;
  AdsalaGemm& operator=(AdsalaGemm&& other) noexcept;

  // ---------------------------------------------------------- hot swapping

  /// Publishes a freshly trained generation: builds an immutable snapshot
  /// (version = current + 1, empty memo) and swaps the atomic pointer.
  /// In-flight queries finish on the old snapshot; every new query sees the
  /// new one. Returns the new version. This is the hook the continual-
  /// retuning loop uses (install() publishes through it).
  std::uint64_t install(TrainOutput trained);

  /// Same, from an existing snapshot's state (model shared, memo fresh,
  /// version re-stamped). Cheap: no model deep-copy.
  std::uint64_t install(std::shared_ptr<const ServingSnapshot> source);

  /// The currently published generation (shared ownership — safe to hold
  /// across swaps; it just goes stale).
  std::shared_ptr<const ServingSnapshot> snapshot() const;

  /// Version of the currently published generation (1 at construction).
  std::uint64_t snapshot_version() const { return active()->version; }

  /// Versions of every retained generation, ascending (the last one is the
  /// active version). Grows by one per install() until evict_below trims it.
  std::vector<std::uint64_t> retained_versions() const;

  /// A retained generation by version (nullptr when evicted or never
  /// published). Handing this to install() re-publishes it — the in-process
  /// rollback path.
  std::shared_ptr<const ServingSnapshot> snapshot_at(
      std::uint64_t version) const;

  /// Bounds the retain-forever growth: drops every retained generation with
  /// version < `version`, never the active one. Returns how many were
  /// dropped. Snapshots pinned via snapshot()/snapshot_at stay alive through
  /// their shared_ptr. Raw-pointer readers (select_threads in flight) only
  /// touch the snapshot that was active when their call started, so the
  /// caller must let queries begun before the last install() drain before
  /// evicting the generations that install replaced (a grace period, or
  /// evicting only versions at least one swap old — which `version <=
  /// previous install()'s return value` guarantees).
  std::size_t evict_below(std::uint64_t version);

  // ------------------------------------------------- serve-time telemetry

  /// Turns on 1-in-`one_in_n` sampling of the BLAS execution wrappers
  /// (sgemm/dgemm/...): a sampled call is wall-timed and appended to `log`
  /// with the snapshot version that chose its thread count. `one_in_n` is
  /// rounded up to a power of two so the sampling gate stays division-free.
  /// Swapping the sampler is safe under concurrent queries (old state is
  /// retained like snapshots).
  void enable_sampling(std::shared_ptr<TelemetryLog> log,
                       std::uint32_t one_in_n = 1024);
  void disable_sampling();
  bool sampling_enabled() const {
    return sampler_.load(std::memory_order_acquire) != nullptr;
  }

  /// The sampling gate, exposed for the latency bench and for callers that
  /// time their own BLAS substitute: true on the 1-in-N ticks that should
  /// be measured and recorded. The non-firing path is one thread-local
  /// decrement and a branch — it does not even read the sampler pointer
  /// (two dependent loads per call were measurable against the ~4 ns
  /// memo-hit latency; the < 5% budget leaves room for neither). The
  /// sampler is consulted only when the countdown expires: when sampling
  /// is off the slow path re-arms a recheck interval, so enabling takes
  /// effect within kSamplerOffRecheckCalls calls per thread rather than
  /// instantly. Each thread samples 1-in-N of its own traffic; the
  /// countdown is shared across runtimes on a thread (sampling stays
  /// probabilistic, and exact in the one-runtime-per-process norm).
  bool sample_tick() const {
    thread_local std::uint64_t countdown = 1;
    if (--countdown != 0) return false;
    return sample_tick_slow(countdown);
  }

  /// Appends one sampled measurement, stamped with the current snapshot
  /// version and the active micro-kernel variant. (x, y, z) are the op's
  /// family coordinates exactly as select_threads takes them. Never throws;
  /// append failures drop the sample (see TelemetrySampler::dropped).
  void record_sample(blas::OpKind op, long x, long y, long z, int elem_bytes,
                     int threads, std::uint64_t measured_ns) const;

  /// Counters of the current sampler generation (0 when sampling is off).
  std::uint64_t samples_recorded() const;
  std::uint64_t samples_dropped() const;

  // -------------------------------------------------------------- querying

  /// The serving ladder rung answers for `op` currently come from. Depends
  /// on the op because one artefact can serve GEMM first-class while
  /// proxying a family that postdates its schema.
  ServingMode serving_mode(blas::OpKind op = blas::OpKind::kGemm) const;

  /// Predicted-optimal thread count for any registered operation, queried
  /// by its family coordinates (docs/OPERATIONS.md): GEMM takes (m, k, n),
  /// the 2-D families (x, y) with z ignored. The op's registry row
  /// canonicalises the coordinates into the stored equivalent-GEMM shape,
  /// so a newly registered operation is served without touching this class.
  /// With an op-aware model this selects from the op's own training rows;
  /// older artefacts degrade to the GEMM proxy of the equivalent shape.
  /// Decisions are memoised in the snapshot's bounded cache; the memo key
  /// includes the operation and element size, so mixed op / sgemm-dgemm
  /// call streams never reuse a stale decision. Lock-free and thread-safe.
  int select_threads(blas::OpKind op, long x, long y, long z = 0,
                     int elem_bytes = 4) const;

  /// Predicted-optimal thread count for a GEMM shape.
  int select_threads(long m, long k, long n, int elem_bytes = 4) const;

  /// select_threads plus the rung and generation that answered, read from
  /// ONE snapshot — a concurrent hot-swap can never pair an old answer with
  /// a new rung.
  Decision query(blas::OpKind op, long x, long y, long z = 0,
                 int elem_bytes = 4) const;

  /// Thread selection + the from-scratch BLAS, i.e. the paper's drop-in
  /// sgemm replacement for native runs. Row-major, C = alpha*A*B + beta*C.
  void sgemm(int m, int n, int k, float alpha, const float* a, int lda,
             const float* b, int ldb, float beta, float* c, int ldc);
  void dgemm(int m, int n, int k, double alpha, const double* a, int lda,
             const double* b, int ldb, double beta, double* c, int ldc);

  /// Thread-selected symmetric rank-k update (paper future work: "extend
  /// ... to other BLAS operations"), C <- alpha*A*A^T + beta*C with A n x k.
  void ssyrk(blas::Uplo uplo, int n, int k, float alpha, const float* a,
             int lda, float beta, float* c, int ldc);
  void dsyrk(blas::Uplo uplo, int n, int k, double alpha, const double* a,
             int lda, double beta, double* c, int ldc);

  /// Thread-selected left-side triangular solve, B <- alpha*inv(op(A))*B
  /// with A n x n triangular and B n x m.
  void strsm(blas::Uplo uplo, blas::Trans trans, blas::Diag diag, int n,
             int m, float alpha, const float* a, int lda, float* b, int ldb);
  void dtrsm(blas::Uplo uplo, blas::Trans trans, blas::Diag diag, int n,
             int m, double alpha, const double* a, int lda, double* b,
             int ldb);

  /// Thread-selected left-side symmetric multiply, C <- alpha*A*B + beta*C
  /// with A symmetric n x n (stored triangle `uplo`) and B/C n x m.
  void ssymm(blas::Uplo uplo, int n, int m, float alpha, const float* a,
             int lda, const float* b, int ldb, float beta, float* c, int ldc);
  void dsymm(blas::Uplo uplo, int n, int m, double alpha, const double* a,
             int lda, const double* b, int ldb, double beta, double* c,
             int ldc);

  /// True when the installed model can actually differentiate operations:
  /// an op_* one-hot column survived preprocessing into the model input.
  /// False for PR-1-era artefacts *and* for GEMM-only campaigns gathered
  /// with the op-aware schema (their constant op columns are dropped at fit
  /// time, so SYRK queries reduce to the GEMM proxy).
  bool op_aware() const { return active()->op_aware(); }

  // References below point into the *current* snapshot. They stay valid for
  // the runtime's lifetime (generations are retained), but go stale across
  // an install() — re-read after a hot-swap.
  const std::string& platform() const { return active()->platform; }
  int max_threads() const { return active()->max_threads; }
  const std::vector<int>& thread_grid() const {
    return active()->thread_grid;
  }
  /// Only valid when serving_mode() != kHeuristicFallback.
  const ml::Regressor& model() const { return *active()->model; }
  const preprocess::Pipeline& pipeline() const { return active()->pipeline; }
  const std::string& model_name() const { return active()->model_name; }

  /// Saves the active generation's two artefacts through save_artefacts.
  /// Requires a model (not the heuristic fallback).
  void save(const std::string& model_path,
            const std::string& config_path) const;

 private:
  AdsalaGemm() = default;  // factories publish a snapshot before returning
  explicit AdsalaGemm(std::shared_ptr<const ServingSnapshot> first);

  /// Swaps `next` in as the new generation (writer path; mutex only here).
  std::uint64_t publish(std::shared_ptr<ServingSnapshot> next);

  const ServingSnapshot* active() const {
    return active_.load(std::memory_order_acquire);
  }

  /// Hot path: one acquire load of a raw pointer — no mutex, no shared_ptr
  /// control-block traffic (libstdc++'s atomic<shared_ptr> takes a pool
  /// mutex, which would put a lock right back under select_threads).
  std::atomic<const ServingSnapshot*> active_{nullptr};

  /// Writer side. `generations_` retains every snapshot ever published so
  /// readers racing a swap can never touch freed memory (hazard-free by
  /// retention); its footprint is bounded by the number of install() calls,
  /// which are rare retrain events by design — and evict_below() lets a
  /// long-lived retuning loop trim generations it has proven quiescent.
  mutable std::mutex install_mu_;
  std::vector<std::shared_ptr<const ServingSnapshot>> generations_;

  /// Countdown-expired half of sample_tick: reads the sampler, re-arms
  /// `countdown` (the period when sampling is on, a recheck interval when
  /// off), and accounts a whole period of ticks at once on firing.
  bool sample_tick_slow(std::uint64_t& countdown) const;

  /// Sampler state mirrors the snapshot discipline: one atomic pointer on
  /// the read side, retained generations on the write side.
  std::atomic<const TelemetrySampler*> sampler_{nullptr};
  std::vector<std::shared_ptr<const TelemetrySampler>> samplers_;
};

}  // namespace adsala::core
