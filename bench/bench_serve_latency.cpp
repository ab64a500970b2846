// Serving-path latency proof for the snapshot refactor (ISSUE 7), the
// serve-time telemetry sampler (ISSUE 8), and the resilient client
// (ISSUE 10).
//
// Five in-process regimes over one trained runtime:
//   repeat  : the same shape every call      -> memo hit        (was: hit)
//   gated   : repeat + the sampling gate with sampling OFF -> memo hit +
//             one thread-local countdown decrement per call
//   sampled : the same gated loop with 1-in-1024 sampling ON; 1 call in
//             1024 also pays the (buffered) log append
//   pingpong: two shapes alternating         -> memo hit        (was: MISS —
//             the old single-entry memo thrashed on any alternation)
//   stream  : a fresh shape every call       -> memo miss, full model argmin
//
// Five daemon-transport regimes against a real in-process serve() loop on
// a Unix socket:
//   raw_daemon_query       : daemon::query per call (connect + frame + ack)
//   two_client_daemon_query: two threads running that loop at once, ns per
//                            query; the serve loop is single-threaded, so
//                            whatever it spends per connection (answering or
//                            waiting on a client) is serial for both
//   reattach_daemon_query  : the raw loop against a daemon started with
//                            reattach_shm, which probes a published shm
//                            region for a new generation on every connection
//   resilient_daemon_query : the same round-trip through ResilientClient's
//                            happy path — the retry/breaker wrapper's
//                            overhead on a healthy daemon
//   resilient_breaker_open : the daemon unreachable and the circuit open —
//                            every answer served by the in-process fallback
//                            runtime (the price of degraded-but-answering)
//
// The acceptance bars are that `repeat` stays in the same ballpark as the
// old memoised path (tens of nanoseconds: one atomic pointer load + one
// atomic word probe), `pingpong` matches `repeat` instead of `stream`,
// `sampled` regresses `gated` by < 5% — the cost of turning sampling on
// through the identical gate-compiled-in loop, the sampler's overhead
// budget (ISSUE 8 acceptance), recorded in the BENCH json as
// sampling_overhead_pct — and `resilient_daemon_query` stays in the same
// ballpark as `raw_daemon_query` (resilient_overhead_pct): the socket
// round-trip, not the wrapper, must dominate (the wrapper's own work is a
// branch and a counter; the delta is mostly run-to-run socket noise).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>

#include "adsala_daemon.h"
#include "bench_util.h"
#include "core/adsala.h"
#include "core/executor.h"
#include "core/gather.h"
#include "core/resilient_client.h"
#include "core/shm_store.h"
#include "core/telemetry_log.h"
#include "core/trainer.h"

using namespace adsala;

namespace {

core::AdsalaGemm make_runtime() {
  core::SimulatedExecutor ex(
      simarch::MachineModel(simarch::tiny_topology(), 42));
  core::GatherConfig cfg;
  cfg.n_samples = 40;
  cfg.iterations = 3;
  cfg.domain.memory_cap_bytes = 64ull * 1024 * 1024;
  cfg.domain.dim_max = 8000;
  cfg.domain.seed = 7;
  core::TrainOptions opts;
  opts.candidates = {"decision_tree"};
  opts.tune = false;
  return core::AdsalaGemm(
      core::train_and_select(core::gather_timings(ex, cfg), opts));
}

/// daemon::serve on its own thread for the object's lifetime.
class BenchDaemon {
 public:
  BenchDaemon(core::AdsalaGemm& runtime, std::string socket,
              std::string reattach_shm = "")
      : socket_(std::move(socket)) {
    std::filesystem::remove(socket_);
    daemon::ServeOptions opts;
    opts.socket_path = socket_;
    opts.handle_signals = false;  // in-process server: leave signals alone
    opts.stop = &stop_;
    opts.reattach_shm = std::move(reattach_shm);
    thread_ = std::thread(
        [&runtime, opts] { (void)daemon::serve(runtime, opts); });
    for (int i = 0; i < 500 && !std::filesystem::exists(socket_); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  ~BenchDaemon() {
    stop_.store(true, std::memory_order_release);
    daemon::Request wake;
    wake.x = wake.y = wake.z = 64;
    (void)daemon::query(socket_, wake, 500);  // wake the accept loop
    thread_.join();
    std::filesystem::remove(socket_);
  }
  BenchDaemon(const BenchDaemon&) = delete;
  BenchDaemon& operator=(const BenchDaemon&) = delete;
  const std::string& socket() const { return socket_; }

 private:
  std::string socket_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

template <typename Fn>
double ns_per_call(Fn&& fn, long iters) {
  // Best-of-3: at single-digit-ns per call, one scheduler hiccup mid-pass
  // skews a mean by more than the sampler overhead we are trying to
  // resolve; noise only ever adds time, so the min is the estimator.
  // The first pass doubles as warm-up (populates the memo), so steady-state
  // regimes measure steady state.
  long sink = 0;
  double best = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    const auto t0 = std::chrono::steady_clock::now();
    for (long i = 0; i < iters; ++i) sink += fn(i);
    const auto t1 = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        static_cast<double>(iters);
    if (pass == 0 || ns < best) best = ns;
  }
  if (sink == 42) std::printf("");  // keep the loop observable
  return best;
}

}  // namespace

int main() {
  core::AdsalaGemm runtime = make_runtime();

  const double repeat = ns_per_call(
      [&](long) { return runtime.select_threads(512, 512, 512); }, 2000000);

  // The sampled regime drives a real log file exactly as a production
  // caller would: gate every call, wall-time + append only the 1-in-1024
  // that the gate picks (the measured-ns value is a placeholder — the point
  // is the gate + amortised append cost, not the GEMM underneath).
  //
  // The overhead comparison runs ONE lambda — select + gate + conditional
  // record — twice, with sampling off and then on. The BLAS execution
  // wrappers compile the gate in unconditionally, so "what does enabling
  // sampling cost" is off-vs-on through identical machine code; comparing
  // against the gate-free `repeat` loop instead would mostly measure the
  // extra call and branch in the loop body, not the sampler.
  auto gated = [&](long) {
    const int p = runtime.select_threads(512, 512, 512);
    if (runtime.sample_tick()) {
      runtime.record_sample(blas::OpKind::kGemm, 512, 512, 512, 4, p, 100);
    }
    return p;
  };
  const double repeat_gated = ns_per_call(gated, 2000000);

  const std::string log_path = "bench_serve_latency_telemetry.bin";
  std::filesystem::remove(log_path);
  double repeat_sampled = 0.0;
  {
    auto log = core::TelemetryLog::open(log_path);
    if (!log.ok()) {
      std::fprintf(stderr, "telemetry log open failed: %s\n",
                   log.error().message.c_str());
      return 1;
    }
    runtime.enable_sampling(
        std::make_shared<core::TelemetryLog>(std::move(log).value()), 1024);
    repeat_sampled = ns_per_call(gated, 2000000);
    runtime.disable_sampling();
  }
  std::filesystem::remove(log_path);

  const double pingpong = ns_per_call(
      [&](long i) {
        return (i & 1) ? runtime.select_threads(512, 512, 512)
                       : runtime.select_threads(384, 384, 384);
      },
      2000000);

  const double stream = ns_per_call(
      [&](long i) {
        const long m = 1 + (i * 7) % 4096;
        const long k = 1 + (i * 13) % 4096;
        const long n = 1 + (i * 29) % 4096;
        return runtime.select_threads(m, k, n);
      },
      50000);

  const double overhead_pct =
      (repeat_sampled - repeat_gated) / repeat_gated * 100.0;

  // ---- daemon transport regimes (ISSUE 10) --------------------------------
  daemon::Request req;
  req.op_code = static_cast<std::uint8_t>(blas::OpKind::kGemm);
  req.elem_bytes = 4;
  req.x = req.y = req.z = 512;
  core::ServeQuery sq;
  sq.x = sq.y = sq.z = 512;
  double raw_daemon = 0.0;
  double two_client_daemon = 0.0;
  double resilient_daemon = 0.0;
  {
    BenchDaemon server(runtime, "/tmp/adsala_bench_serve.sock");
    const std::string& socket_path = server.socket();
    raw_daemon = ns_per_call(
        [&](long) {
          auto ack = daemon::query(socket_path, req, 2000);
          return ack.ok() ? static_cast<long>(ack.value().threads) : -1L;
        },
        2000);

    constexpr long kPerClient = 2000;
    auto query_loop = [&]() {
      long answered = 0;
      for (long i = 0; i < kPerClient; ++i) {
        answered += daemon::query(socket_path, req, 2000).ok() ? 1 : 0;
      }
      return answered;
    };
    two_client_daemon =
        ns_per_call(
            [&](long) {
              long other_answered = 0;
              std::thread other([&] { other_answered = query_loop(); });
              const long answered = query_loop();
              other.join();
              return answered + other_answered;
            },
            1) /
        (2.0 * kPerClient);

    auto transport =
        [&](const core::ServeQuery& q) -> Expected<core::ServeAnswer> {
      daemon::Request r;
      r.op_code = static_cast<std::uint8_t>(q.op);
      r.elem_bytes = static_cast<std::uint8_t>(q.elem_bytes);
      r.x = q.x;
      r.y = q.y;
      r.z = q.z;
      auto ack = daemon::query(socket_path, r, 2000);
      if (!ack.ok()) return ack.error();
      if (ack.value().status != ErrorCode::kOk) {
        return Error{ack.value().status, "daemon rejected the request"};
      }
      core::ServeAnswer a;
      a.threads = static_cast<int>(ack.value().threads);
      a.mode = ack.value().mode;
      return a;
    };
    core::ResilientClient resilient(transport, {});
    resilient_daemon = ns_per_call(
        [&](long) {
          auto a = resilient.query(sq);
          return a.ok() ? static_cast<long>(a.value().threads) : -1L;
        },
        2000);
  }

  // Breaker-open regime: the transport refuses instantly, the first query
  // trips the (threshold 1) breaker, and every timed call after warm-up is
  // pure in-process fallback serving under an open circuit.
  core::ResilientClient::Options broken_opts;
  broken_opts.max_attempts = 1;
  broken_opts.breaker_threshold = 1;
  broken_opts.breaker_open_ms = 3600 * 1000;
  core::ResilientClient broken(
      [](const core::ServeQuery&) -> Expected<core::ServeAnswer> {
        return Error{ErrorCode::kUnavailable, "daemon down"};
      },
      broken_opts);
  const double breaker_open = ns_per_call(
      [&](long) {
        auto a = broken.query(sq);
        return a.ok() ? static_cast<long>(a.value().threads) : -1L;
      },
      200000);

  // The raw loop again, against a daemon watching a region that holds this
  // runtime's artefacts and is never republished: what the per-connection
  // probe costs when nothing changed.
  const std::string artefact_dir = "/tmp/adsala_bench_serve_artefacts";
  const std::string region = artefact_dir + "/region";
  std::filesystem::create_directories(artefact_dir);
  runtime.save(artefact_dir + "/model.json", artefact_dir + "/config.json");
  const Error published =
      core::publish_shm_region(region, slurp(artefact_dir + "/model.json"),
                               slurp(artefact_dir + "/config.json"));
  if (!published.ok()) {
    std::fprintf(stderr, "shm publish failed: %s\n", published.message.c_str());
    return 1;
  }
  double reattach_daemon = 0.0;
  {
    BenchDaemon server(runtime, "/tmp/adsala_bench_serve_reattach.sock",
                       region);
    reattach_daemon = ns_per_call(
        [&](long) {
          auto ack = daemon::query(server.socket(), req, 2000);
          return ack.ok() ? static_cast<long>(ack.value().threads) : -1L;
        },
        2000);
  }
  std::filesystem::remove_all(artefact_dir);

  const double resilient_overhead_pct =
      (resilient_daemon - raw_daemon) / raw_daemon * 100.0;

  std::printf("serve latency (ns/query), model=%s platform=%s\n",
              runtime.model_name().c_str(), runtime.platform().c_str());
  std::printf("  %-28s %10.1f\n", "repeat (memo hit)", repeat);
  std::printf("  %-28s %10.1f\n", "repeat + gate (sampling off)", repeat_gated);
  std::printf("  %-28s %10.1f\n", "repeat + 1/1024 sampling", repeat_sampled);
  std::printf("  %-28s %10.1f\n", "pingpong (memo hit, 2 keys)", pingpong);
  std::printf("  %-28s %10.1f\n", "stream (memo miss, argmin)", stream);
  std::printf("  %-28s %10.1f\n", "raw daemon query", raw_daemon);
  std::printf("  %-28s %10.1f\n", "two-client daemon query",
              two_client_daemon);
  std::printf("  %-28s %10.1f\n", "reattach daemon query", reattach_daemon);
  std::printf("  %-28s %10.1f\n", "resilient daemon query", resilient_daemon);
  std::printf("  %-28s %10.1f\n", "resilient, breaker open", breaker_open);
  std::printf("  hit/miss ratio: %.1fx\n", stream / repeat);
  std::printf("  sampling overhead: %+.2f%% (budget < 5%%)\n", overhead_pct);
  std::printf("  resilient-client overhead on healthy daemon: %+.2f%%\n",
              resilient_overhead_pct);

  bench::BenchJson json("serve_latency");
  json.meta("platform", Json(runtime.platform()));
  json.meta("model", Json(runtime.model_name()));
  json.meta("sampling_period", Json(1024));
  json.meta("sampling_overhead_pct", Json(overhead_pct));
  json.meta("resilient_overhead_pct", Json(resilient_overhead_pct));
  auto row = [&](const char* regime, double ns) {
    JsonObject r;
    r["regime"] = Json(regime);
    r["ns_per_call"] = Json(ns);
    json.add(std::move(r));
  };
  row("repeat", repeat);
  row("repeat_gated", repeat_gated);
  row("repeat_sampled", repeat_sampled);
  row("pingpong", pingpong);
  row("stream", stream);
  row("raw_daemon_query", raw_daemon);
  row("two_client_daemon_query", two_client_daemon);
  row("reattach_daemon_query", reattach_daemon);
  row("resilient_daemon_query", resilient_daemon);
  row("resilient_breaker_open", breaker_open);
  return 0;
}
