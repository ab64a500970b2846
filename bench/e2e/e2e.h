// Shared declarations of the native end-to-end benchmark (README.md beside
// this file): options, the call key, operand storage, the span tracer, the
// set-up step, the in-process daemon and the per-workload entry points.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adsala_daemon.h"
#include "blas/op.h"
#include "common/aligned_buffer.h"
#include "common/rng.h"
#include "core/adsala.h"

namespace e2e {

using adsala::blas::OpKind;
using adsala::core::AdsalaGemm;

/// steady_clock nanoseconds: every timestamp and duration in the benchmark.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64 of (a, b): derives independent sub-seeds from the one --seed.
std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/// Fisher-Yates over the repo's xoshiro generator: the same permutation
/// for the same seed on every standard library, unlike std::shuffle.
template <typename T>
void shuffle(std::vector<T>& v, std::uint64_t seed) {
  adsala::Rng rng(seed);
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

struct Options {
  std::string workload;  ///< empty: all four workloads in turn
  std::uint64_t seed = 1;
  double seconds = 12.0;  ///< measured time of one workload run
  bool trace = false;     ///< per-layer run instead of the end-to-end one
  bool smoke = false;     ///< ~1/50 size; implies trace
  int setups = 5;         ///< set-ups per run; setup_s is their median

  /// A trace size scaled down in smoke mode.
  std::size_t scaled(std::size_t n) const {
    return smoke ? std::max<std::size_t>(1, n / 50) : n;
  }
};

/// One level-3 call as a caller makes it: the op, the element size and
/// the op's family coordinates (GEMM (m, k, n); SYRK (n, k); TRSM, SYMM and
/// TRMM (n, m)), exactly as AdsalaGemm::select_threads takes them.
struct Key {
  OpKind op = OpKind::kGemm;
  int elem = 4;
  long x = 0;
  long y = 0;
  long z = 0;

  auto operator<=>(const Key&) const = default;
};

/// FLOPs of one call (the blas/*.h counts).
double key_flops(const Key& key);

/// m*k*n of the stored equivalent-GEMM shape: the reference-check gate.
double key_volume(const Key& key);

/// Draws `count` keys per (op, precision) under `cap_bytes` and `dim_max`
/// through the op's domain sampler (sampling/domain.h), dropping repeats;
/// keys are interleaved round-robin over (op, precision), so every prefix
/// of the result covers the whole family. `stream` fixes a scrambled-Halton
/// point set; `seed` shifts it by at most 1 % of the unit cube, so another
/// seed moves every shape a little while covering the domain the same way.
/// (A fully re-rotated set per seed moves a 320-shape mix's median call
/// time by ~20 % from seed to seed: the seed would swamp what the metrics
/// measure.)
std::vector<Key> sample_keys(std::size_t count, std::size_t cap_bytes,
                             long dim_max, std::uint64_t stream,
                             std::uint64_t seed);

/// Which output buffer a call writes.
enum class Out { kAdsala = 0, kPmax = 1, kRef = 2 };

/// Operand storage for one workload: per precision, one pool of random
/// inputs (A and B are read-only views into it) and one output buffer per
/// side, sized for the largest key. Row-major, leading dimensions equal to
/// the row length, alpha = 1, beta = 0, lower triangles, no transposes.
class Operands {
 public:
  Operands(const std::vector<Key>& keys, std::uint64_t seed);

  /// Before every call of a key, outside the timer: refills the in-place B
  /// of TRSM and TRMM from its pristine copy in the pool, and makes a TRSM
  /// key's triangle diagonally dominant (so solves stay bounded and clear
  /// of denormals) until a call of another key restores it.
  void prepare(const Key& key, Out out);

  /// The call through the ADSALA path, as a caller makes it: AdsalaGemm's
  /// wrappers, or select_threads + blas::?trmm for TRMM (which has none).
  void adsala(AdsalaGemm& runtime, const Key& key, Out out);

  /// The call straight into the blas routine at a fixed thread count.
  void fixed(const Key& key, int threads, Out out);

  /// blas::reference_<op> into Out::kRef.
  void reference(const Key& key);

  /// Max-norm relative difference of two outputs of `key` (SYRK: the
  /// written triangle only).
  double difference(const Key& key, Out a, Out b) const;

 private:
  template <typename T>
  struct Pool {
    adsala::AlignedBuffer<T> in;
    adsala::AlignedBuffer<T> out[3];
  };
  template <typename T>
  Pool<T>& pool();
  template <typename T>
  const Pool<T>& pool() const;
  template <typename T>
  void run(const Key& key, int threads, AdsalaGemm* runtime, Out out);
  template <typename T>
  double diff(const Key& key, Out a, Out b) const;
  void patch(const Key& key);
  void unpatch();

  Pool<float> f32_;
  Pool<double> f64_;
  Key patched_;  ///< the TRSM key whose diagonal is patched, if op is kTrsm
  std::vector<double> saved_diagonal_;
};

/// Relative tolerance of the ADSALA-vs-p=max and reference checks.
inline double tolerance(const Key& key) { return key.elem == 4 ? 1e-4 : 1e-10; }

/// Span recorder of the traced run: kept in memory, written at the end.
class Tracer {
 public:
  /// Opens a span and returns its id; end() closes it and returns its
  /// duration in nanoseconds.
  int begin(const char* name, int parent = -1);
  std::int64_t end(int id);
  /// Records an already-measured interval.
  int add(const char* name, std::int64_t start, std::int64_t end,
          int parent = -1);
  /// Appends another tracer's spans (a client thread's), re-basing parents.
  void append(const Tracer& other);

  /// Sum of the durations of spans named `name` (prefix match when `name`
  /// ends in '.'), in seconds.
  double total_s(const std::string& name) const;

  /// Writes {"workload", "spans": [[name, start_ns, end_ns, parent], ...]}
  /// to `path`; parent is a span's index, -1 for a top-level span.
  void write(const std::string& path, const std::string& workload) const;

 private:
  struct Span {
    const char* name;
    int parent;
    std::int64_t start;
    std::int64_t end;
  };
  std::vector<Span> spans_;
};

/// Span name of the BLAS routine of `op` ("blas.gemm", ...).
const char* blas_span(OpKind op);

/// daemon::serve on its own thread for the object's lifetime. The socket
/// path is relative to the run directory (the working directory), which
/// keeps it within the 108-byte sun_path limit however deep the checkout.
class Daemon {
 public:
  Daemon(AdsalaGemm& runtime, std::string socket);  ///< returns once bound
  ~Daemon();  ///< stops, wakes the accept loop and joins
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket() const { return socket_; }

 private:
  std::string socket_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// A trained, loaded runtime and what setting it up cost.
struct Served {
  std::unique_ptr<AdsalaGemm> runtime;
  std::unique_ptr<Daemon> daemon;  ///< serve_daemon only; stops first
  std::string model_path;
  std::string config_path;
  std::string model_sha256;
  double setup_s = 0.0;  ///< medians over Options::setups
  double train_s = 0.0;
  double load_ms = 0.0;
};

/// The host's CPU count, as the committed timings are keyed by it.
int host_cpus();

/// A whole file's bytes; throws when unreadable.
std::string read_file(const std::string& path);

/// Exits 2 (naming --regather) unless the committed timings were gathered
/// on a host with this host's CPU count.
void check_provenance();

/// Trains xgboost (tune = false) from the committed timings through
/// InstallOptions::reuse_timings_csv, loads the artefacts (or, with
/// `daemon`, publishes them to a shm region, attaches and binds a daemon),
/// and makes warm-up calls; Options::setups times over, keeping the last.
Served set_up(const Options& options, bool daemon);

/// Rebuilds the committed timings and their provenance sidecar on this
/// host (two gather_timings campaigns). Returns the exit code.
int regather(const Options& options);

/// Metrics and correctness counters of one workload run.
struct Result {
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string model_sha256;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Counts one failed or mismatched operation (first few are printed).
  void fail(const std::string& what);
};

/// The four workloads. Each sets up, measures for Options::seconds and
/// fills either the end-to-end or (Options::trace) the per-layer metrics.
Result paper_mix(const Options& options);
Result small_stream(const Options& options);
Result hot_repeat(const Options& options);
Result serve_daemon(const Options& options);

/// Per-layer probes shared by every traced workload (probes.cpp).
struct Probes {
  const Options& options;
  AdsalaGemm& runtime;
  Operands& operands;
  const std::vector<Key>& keys;  ///< the workload's distinct keys
  Result& result;
  Tracer& tracer;  ///< receives the select.replay spans
};

/// Cold/warm selection and its replayed split, the thread-grid sweep,
/// fork/join, the sampling gate (logging into `log`, whose records are
/// then counted), shm publish/attach and the daemon round trip; plus
/// core.train_s / core.load_ms from the set-up.
void run_probes(const Probes& probes, const Served& served,
                const std::shared_ptr<adsala::core::TelemetryLog>& log);

/// Opens (truncating) the telemetry log `path` in the run directory.
std::shared_ptr<adsala::core::TelemetryLog> open_log(const std::string& path);

/// "gemm/f32/64x147x12544": a key in failure messages.
std::string key_name(const Key& key);

/// The daemon request for `key`.
adsala::daemon::Request to_request(const Key& key);

/// The cold selection of `key`, replayed from outside through the public
/// preprocess and ml functions (replay.cpp): when each step ended.
struct ReplaySplit {
  std::int64_t start = 0;
  std::int64_t features_end = 0;   ///< make_query_features over the grid
  std::int64_t transform_end = 0;  ///< Pipeline::transform_row over the grid
  std::int64_t end = 0;            ///< Regressor::predict_one over the grid
  int threads = 0;                 ///< the replayed argmin
};
ReplaySplit replay_selection(const AdsalaGemm& runtime, const Key& key);

}  // namespace e2e
