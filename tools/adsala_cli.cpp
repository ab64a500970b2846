// adsala — command-line interface to the ADSALA workflow.
//
//   adsala install   --platform <native|setonix|gadi|tiny> [--samples N]
//                    [--out DIR] [--cap-mb MB] [--no-tune]
//                    [--ops <name>,...]
//   adsala predict   --dir DIR | --shm PATH [--fallback] [--shape MxKxN ...]
//                    [--<op> NxK|NxM ...]
//   adsala inspect   --dir DIR
//   adsala time      --platform <...> --shape MxKxN [--threads P]
//   adsala publish   --dir DIR --shm PATH
//   adsala serve     --dir DIR | --shm PATH [--fallback] --socket PATH
//                    [--max-requests N] [--reattach] [--io-timeout-ms N]
//   adsala query     --socket PATH --shape MxKxN | --<op> XxY
//                    [--send-malformed] [--io-timeout-ms N] [--retry]
//                    [--wedge-ms N]
//   adsala sample    --dir DIR | --shm PATH --platform <...> --telemetry PATH
//                    [--samples N] [--ops <name>,...]
//   adsala retune    --dir DIR --telemetry PATH [--force] [--threshold X]
//                    [--window N] [--min-groups N] [--models <name>,...]
//                    [--no-tune] [--shm PATH]
//   adsala rollback  --dir DIR --to VERSION [--shm PATH]
//   adsala versions  --dir DIR
//
// `install` runs the full installation workflow and writes model.json /
// config.json / timings.csv; `--ops` takes any comma list of registered
// operations (one sub-campaign per operation over the same domain).
// `predict` loads those artefacts and prints the selected thread count per
// query; every registered 2-D family automatically gets a `--<name> XxY`
// flag (coordinates from its registry row), so a newly registered op is
// predictable with zero CLI edits. `inspect` summarises the artefacts.
// `time` measures one GEMM on the chosen backend at a given thread count
// (or sweeps the default grid when --threads is omitted).
//
// Tuning-as-a-service verbs (docs/OPERATIONS.md):
// `publish` validates a directory's artefacts and copies them into a
// shared-memory region (core/shm_store.h) that any number of processes can
// serve from (`predict --shm`, `serve --shm`). `serve` runs the resident
// daemon on a Unix-domain socket; `query` is its client (and `--send-
// malformed` deliberately sends a wrong-version frame so CI can check the
// protocol-error path end to end). `serve --shm --reattach` keeps watching
// the region between connections and hot-swaps in any new generation a
// retune republished.
//
// Crash-safety plumbing (ISSUE 10, docs/OPERATIONS.md "Crash recovery
// runbook"): `serve` refuses to steal a live daemon's socket (exit 9),
// drains gracefully on SIGTERM/SIGINT, and bounds each connection's recv/
// send with --io-timeout-ms (default 2000; <= 0 disables). `query --retry`
// answers through the resilient client — bounded retry with full-jitter
// backoff, circuit breaker, in-process fallback from --dir/--shm — so it
// always prints a thread count; knobs via ADSALA_RETRY_ATTEMPTS,
// ADSALA_RETRY_BACKOFF_MS, ADSALA_BREAKER_THRESHOLD, ADSALA_BREAKER_OPEN_MS.
// `query --wedge-ms N` is the test-only misbehaving client: it connects,
// sends 4 bytes of a frame, sleeps N ms, and exits — proving a wedged
// client costs the daemon one timeout, not the service. Loading from a
// --dir store first runs recover_store() best-effort, so a crashed
// promote's debris never blocks serving.
//
// Continual-retuning verbs (docs/OPERATIONS.md "Continual retuning"):
// `sample` drives measured traffic through a serving runtime with the
// telemetry sampler recording every call (1-in-1 sampling) — the loop's
// traffic generator for CI and offline campaigns. `retune` runs the drift
// detector over a telemetry log and, when it fires (or --force), retrains
// through the reuse-timings path, write-then-verifies, bumps the artefact
// version and optionally republishes to --shm. `rollback --to V`
// republishes retained version V as a new current version; `versions`
// lists the store.
//
// Exit codes follow the error taxonomy (common/status.h, exit_code_for):
//   0 success        2 usage error            3 artefact file missing
//   4 artefact undecodable                    5 artefact fails validation
//   6 out of memory  7 temporarily unavailable (shm mid-swap, daemon down)
//   8 protocol error (malformed daemon frame)
//   9 precondition failed (rollback target not retained, telemetry too thin)
//   1 any other internal error
// Artefact problems print one line to stderr: "error (<code>): <message>".
// `predict --fallback` never fails on artefact problems — it serves from
// the degraded heuristic instead and reports the serving mode.
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "adsala_daemon.h"
#include "blas/op.h"
#include "common/status.h"
#include "core/adsala.h"
#include "core/install.h"
#include "core/op_registry.h"
#include "core/resilient_client.h"
#include "core/retune.h"
#include "core/shm_store.h"
#include "core/trainer.h"
#include "preprocess/features.h"

using namespace adsala;

namespace {

struct Args {
  std::string command;
  std::string platform = "native";
  std::string dir = "adsala_artifacts";
  std::size_t samples = 150;
  std::size_t cap_mb = 100;
  bool tune = true;
  bool fallback = false;  ///< predict/serve: degrade instead of failing
  int threads = 0;
  std::string shm;                 ///< shared-memory region path
  std::string socket;              ///< daemon Unix-domain socket path
  long max_requests = -1;          ///< serve: exit after N answers (< 0: run)
  bool send_malformed = false;     ///< query: send a wrong-version frame
  std::vector<std::string> models; ///< install/retune: candidate zoo override
  std::string telemetry;           ///< sample/retune: telemetry log path
  bool force = false;              ///< retune: retrain even without drift
  double threshold = 0.10;         ///< retune: drift mean-regret threshold
  std::size_t window = 4096;       ///< retune: drift window (records)
  std::size_t min_groups = 8;      ///< retune: min shape groups per op
  std::uint64_t to_version = 0;    ///< rollback: retained version to republish
  bool reattach = false;           ///< serve: hot-swap new shm generations in
  int io_timeout_ms = 2000;        ///< serve/query: per-connection deadline
  bool retry = false;              ///< query: resilient client (retry/breaker)
  int wedge_ms = 0;                ///< query: misbehaving-client test mode
  std::vector<blas::OpKind> ops = {blas::OpKind::kGemm};
  /// Predict queries in parse order; shapes carry the op's stored
  /// equivalent-GEMM convention (canonicalised by the registry).
  std::vector<std::pair<blas::OpKind, simarch::GemmShape>> queries;
};

/// "--syrk NxK"-style flag synopsis for every registered 2-D family.
std::string family_flag_usage() {
  std::string out;
  for (const auto& traits : core::op_registry()) {
    if (traits.family_dims != 2) continue;
    out += std::string(" [--") + blas::op_name(traits.op) + " ";
    out += static_cast<char>(std::toupper(traits.coord_names[0][0]));
    out += 'x';
    out += static_cast<char>(std::toupper(traits.coord_names[1][0]));
    out += " ...]";
  }
  return out;
}

/// Comma list of every registered operation name ("gemm,syrk,...").
std::string op_name_list() {
  std::string out;
  for (const auto op : blas::all_ops()) {
    if (!out.empty()) out += ',';
    out += blas::op_name(op);
  }
  return out;
}

/// Space list of the ops an artefact with these resolved input columns
/// serves from their own one-hot column (preprocess::op_served_first_class).
std::string first_class_ops(std::span<const std::size_t> columns) {
  std::string out;
  for (const auto op : blas::all_ops()) {
    if (!preprocess::op_served_first_class(op, columns)) continue;
    if (!out.empty()) out += ' ';
    out += blas::op_name(op);
  }
  return out;
}

[[noreturn]] void usage(const char* why = nullptr) {
  if (why != nullptr) std::fprintf(stderr, "error: %s\n\n", why);
  std::fprintf(stderr,
               "usage:\n"
               "  adsala install --platform <native|setonix|gadi|tiny> "
               "[--samples N] [--out DIR] [--cap-mb MB] [--no-tune] "
               "[--ops %s]\n"
               "  adsala predict --dir DIR [--fallback] "
               "[--shape MxKxN ...]%s\n"
               "  adsala inspect --dir DIR\n"
               "  adsala time    --platform <...> --shape MxKxN "
               "[--threads P]\n"
               "  adsala publish --dir DIR --shm PATH\n"
               "  adsala serve   --dir DIR | --shm PATH [--fallback] "
               "--socket PATH [--max-requests N] [--reattach] "
               "[--io-timeout-ms N]\n"
               "  adsala query   --socket PATH --shape MxKxN | --<op> XxY "
               "[--send-malformed] [--io-timeout-ms N] [--retry] "
               "[--wedge-ms N]\n"
               "  adsala sample  --dir DIR | --shm PATH --platform <...> "
               "--telemetry PATH [--samples N] [--ops ...]\n"
               "  adsala retune  --dir DIR --telemetry PATH [--force] "
               "[--threshold X] [--window N] [--min-groups N] "
               "[--models ...] [--no-tune] [--shm PATH]\n"
               "  adsala rollback --dir DIR --to VERSION [--shm PATH]\n"
               "  adsala versions --dir DIR\n",
               op_name_list().c_str(), family_flag_usage().c_str());
  std::exit(2);
}

simarch::GemmShape parse_shape(const std::string& text) {
  simarch::GemmShape shape;
  shape.elem_bytes = 4;
  if (std::sscanf(text.c_str(), "%ldx%ldx%ld", &shape.m, &shape.k,
                  &shape.n) != 3 ||
      shape.m < 1 || shape.k < 1 || shape.n < 1) {
    usage("--shape expects MxKxN with positive integers");
  }
  return shape;
}

Args parse(int argc, char** argv) {
  if (argc < 2) usage();
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--platform") {
      args.platform = value();
    } else if (flag == "--dir" || flag == "--out") {
      args.dir = value();
    } else if (flag == "--samples") {
      args.samples = std::stoul(value());
    } else if (flag == "--cap-mb") {
      args.cap_mb = std::stoul(value());
    } else if (flag == "--no-tune") {
      args.tune = false;
    } else if (flag == "--fallback") {
      args.fallback = true;
    } else if (flag == "--threads") {
      args.threads = std::stoi(value());
    } else if (flag == "--shm") {
      args.shm = value();
    } else if (flag == "--socket") {
      args.socket = value();
    } else if (flag == "--max-requests") {
      args.max_requests = std::stol(value());
    } else if (flag == "--send-malformed") {
      args.send_malformed = true;
    } else if (flag == "--telemetry") {
      args.telemetry = value();
    } else if (flag == "--force") {
      args.force = true;
    } else if (flag == "--threshold") {
      args.threshold = std::stod(value());
    } else if (flag == "--window") {
      args.window = std::stoul(value());
    } else if (flag == "--min-groups") {
      args.min_groups = std::stoul(value());
    } else if (flag == "--to") {
      args.to_version = std::stoull(value());
    } else if (flag == "--reattach") {
      args.reattach = true;
    } else if (flag == "--io-timeout-ms") {
      args.io_timeout_ms = std::stoi(value());
    } else if (flag == "--retry") {
      args.retry = true;
    } else if (flag == "--wedge-ms") {
      args.wedge_ms = std::stoi(value());
    } else if (flag == "--models") {
      // Candidate zoo override for install (comma list, e.g.
      // "decision_tree"): committed CI artefacts pin a compact model so the
      // repository does not carry a megabyte ensemble.
      std::string list = value();
      std::size_t start = 0;
      while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        args.models.push_back(list.substr(
            start,
            comma == std::string::npos ? std::string::npos : comma - start));
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (flag == "--shape") {
      args.queries.emplace_back(blas::OpKind::kGemm, parse_shape(value()));
    } else if (flag.rfind("--", 0) == 0 && blas::parse_op(flag.substr(2)) &&
               core::op_traits(*blas::parse_op(flag.substr(2))).family_dims ==
                   2) {
      // Every registered 2-D family gets its own predict flag; the registry
      // canonicalises the (x, y) family coordinates into the stored
      // equivalent-GEMM shape.
      const blas::OpKind op = *blas::parse_op(flag.substr(2));
      long x = 0, y = 0;
      if (std::sscanf(value().c_str(), "%ldx%ld", &x, &y) != 2 || x < 1 ||
          y < 1) {
        usage((flag + " expects XxY with positive integers").c_str());
      }
      args.queries.emplace_back(op, core::op_traits(op).to_shape(x, y, 0, 4));
    } else if (flag == "--ops") {
      args.ops.clear();
      std::string list = value();
      std::size_t start = 0;
      while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::string token =
            list.substr(start, comma == std::string::npos ? std::string::npos
                                                          : comma - start);
        const auto op = blas::parse_op(token);
        if (!op) {
          usage(("--ops expects a comma list of " + op_name_list()).c_str());
        }
        args.ops.push_back(*op);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  return args;
}

std::unique_ptr<core::GemmExecutor> make_backend(const std::string& name) {
  if (name == "native") return std::make_unique<core::NativeExecutor>();
  simarch::CpuTopology topo;
  if (name == "setonix") {
    topo = simarch::setonix_topology();
  } else if (name == "gadi") {
    topo = simarch::gadi_topology();
  } else if (name == "tiny") {
    topo = simarch::tiny_topology();
  } else {
    usage("unknown platform");
  }
  return std::make_unique<core::SimulatedExecutor>(
      simarch::MachineModel(topo, 42));
}

int cmd_install(const Args& args) {
  auto executor = make_backend(args.platform);
  core::InstallOptions options;
  options.gather.n_samples = args.samples;
  options.gather.ops = args.ops;
  options.gather.domain.memory_cap_bytes = args.cap_mb * 1024ull * 1024;
  if (args.platform == "native") {
    options.gather.iterations = 3;
    options.gather.domain.dim_max =
        std::min<long>(options.gather.domain.dim_max, 2000);
  }
  options.train.tune = args.tune;
  options.train.candidates = args.models;
  options.output_dir = args.dir;
  std::filesystem::create_directories(args.dir);

  std::string op_list;
  for (const auto op : args.ops) {
    if (!op_list.empty()) op_list += ',';
    op_list += blas::op_name(op);
  }
  std::printf(
      "installing on '%s' (%zu shapes per op, ops=%s, cap %zu MB, "
      "tune=%s)...\n",
      args.platform.c_str(), args.samples, op_list.c_str(), args.cap_mb,
      args.tune ? "yes" : "no");
  const auto report = core::install(*executor, options);
  std::printf("gather %.1fs, train %.1fs\n", report.gather_seconds,
              report.train_seconds);
  std::printf("%-18s %10s %10s %10s %10s\n", "model", "norm RMSE",
              "eval (us)", "est mean", "est agg");
  for (const auto& r : report.trained.reports) {
    std::printf("%-18s %10.3f %10.1f %10.2f %10.2f\n", r.model_name.c_str(),
                r.test_rmse_norm, r.eval_time_us, r.est_mean_speedup,
                r.est_agg_speedup);
  }
  std::printf("selected: %s\nartefacts: %s, %s\n",
              report.trained.selected.c_str(), report.model_path.c_str(),
              report.config_path.c_str());
  return 0;
}

/// One stderr line per artefact failure, in the documented format.
void report_error(const Error& err) {
  std::fprintf(stderr, "error (%s): %s\n", error_code_name(err.code),
               err.message.c_str());
}

/// Builds the serving runtime per the flags: --shm attaches to a shared
/// region, --dir loads files, and --fallback turns ANY artefact problem
/// into the degraded heuristic (reported to stderr) instead of a failure.
/// On error (without --fallback) reports it and returns nullptr with
/// *exit_code set.
std::unique_ptr<core::AdsalaGemm> load_runtime(const Args& args,
                                               int* exit_code) {
  if (args.shm.empty()) {
    // Best-effort crash recovery before loading from a directory store: a
    // promote SIGKILL-ed mid-flight may have left a torn mirror that the
    // retained versions can repair. Failures are non-fatal here — try_load
    // below produces the authoritative error.
    if (auto recovered = core::recover_store(args.dir);
        recovered.ok() && recovered.value().repaired) {
      std::fprintf(stderr,
                   "note: recovered artefact store %s to version %llu\n",
                   args.dir.c_str(),
                   static_cast<unsigned long long>(recovered.value().version));
    }
  }
  auto loaded = !args.shm.empty()
                    ? core::AdsalaGemm::try_attach(args.shm)
                    : core::AdsalaGemm::try_load(args.dir + "/model.json",
                                                 args.dir + "/config.json");
  if (loaded.ok()) {
    return std::make_unique<core::AdsalaGemm>(std::move(loaded).value());
  }
  if (args.fallback) {
    report_error(loaded.error());
    return std::make_unique<core::AdsalaGemm>(
        core::AdsalaGemm::heuristic_fallback());
  }
  report_error(loaded.error());
  *exit_code = exit_code_for(loaded.error().code);
  return nullptr;
}

int cmd_predict(const Args& args) {
  if (args.queries.empty()) {
    usage("predict needs at least one --shape or family flag");
  }
  int exit_code = 0;
  auto runtime = load_runtime(args, &exit_code);
  if (runtime == nullptr) return exit_code;
  std::printf("platform %s, model %s, max threads %d, op-aware %s\n",
              runtime->platform().c_str(), runtime->model_name().c_str(),
              runtime->max_threads(), runtime->op_aware() ? "yes" : "no");
  if (runtime->serving_mode() != core::ServingMode::kHeuristicFallback) {
    std::printf("first-class ops: %s\n",
                first_class_ops(runtime->pipeline().schema_columns()).c_str());
  }
  for (const auto& [op, shape] : args.queries) {
    const auto& traits = core::op_traits(op);
    long coords[3] = {0, 0, 0};
    traits.from_shape(shape, &coords[0], &coords[1], &coords[2]);
    const int p = runtime->select_threads(op, coords[0], coords[1], coords[2]);
    // Which rung of the serving ladder answered for this op: first-class
    // model, equivalent-GEMM proxy, or the artefact-less heuristic.
    const core::ServingMode mode = runtime->serving_mode(op);
    const char* marker = "";
    if (mode == core::ServingMode::kGemmProxy) {
      marker = " (gemm-proxy fallback)";
    } else if (mode == core::ServingMode::kHeuristicFallback) {
      marker = " (heuristic fallback)";
    }
    std::printf("%s", blas::op_name(op));
    for (int d = 0; d < traits.family_dims; ++d) {
      std::printf(" %s=%ld", traits.coord_names[d], coords[d]);
    }
    std::printf(" -> %d threads%s\n", p, marker);
  }
  return 0;
}

int cmd_inspect(const Args& args) {
  // Decode through the non-throwing reader so a missing directory exits 3
  // and a torn write exits 4, each with a path-qualified stderr line.
  auto config_result = try_read_json_file(args.dir + "/config.json");
  if (!config_result.ok()) {
    report_error(config_result.error());
    return exit_code_for(config_result.error().code);
  }
  auto model_result = try_read_json_file(args.dir + "/model.json");
  if (!model_result.ok()) {
    report_error(model_result.error());
    return exit_code_for(model_result.error().code);
  }
  const Json config = std::move(config_result).value();
  const Json model = std::move(model_result).value();
  std::printf("platform    : %s\n", config.at("platform").as_string().c_str());
  std::printf("max threads : %d\n", config.at("max_threads").as_int());
  std::printf("model       : %s\n", model.at("model").as_string().c_str());
  std::printf("thread grid :");
  for (const auto& v : config.at("thread_grid").as_array()) {
    std::printf(" %d", v.as_int());
  }
  std::printf("\n");
  const Json& pipe = config.at("pipeline");
  std::printf("pipeline    : yeo_johnson=%s standardize=%s lof=%s "
              "corr_filter=%s log_label=%s\n",
              pipe.at("yeo_johnson").as_bool() ? "on" : "off",
              pipe.at("standardize").as_bool() ? "on" : "off",
              pipe.at("lof").as_bool() ? "on" : "off",
              pipe.at("corr_filter").as_bool() ? "on" : "off",
              pipe.at("log_label").as_bool() ? "on" : "off");
  std::vector<std::string> names;
  for (const auto& name : pipe.at("feature_names").as_array()) {
    names.push_back(name.as_string());
  }
  std::printf("features    : %zu kept of %zu\n",
              pipe.at("keep").as_array().size(), names.size());
  std::printf("first-class : %s\n",
              first_class_ops(preprocess::resolve_columns(names)).c_str());
  // What a process loading these artefacts answers memo misses with.
  auto loaded = core::AdsalaGemm::try_load(args.dir + "/model.json",
                                           args.dir + "/config.json");
  if (!loaded.ok()) {
    std::printf("evaluator   : none, a load serves the heuristic (%s)\n",
                loaded.error().message.c_str());
    return 0;
  }
  const core::GridEvaluator& evaluator = *loaded.value().snapshot()->evaluator;
  if (evaluator.masks != nullptr) {
    std::printf("evaluator   : masks (%.2f MB tables, built in %.2f ms)\n",
                static_cast<double>(evaluator.masks->table_bytes()) / 1e6,
                evaluator.build_ms);
  } else {
    std::printf("evaluator   : rows (%s)\n", evaluator.rows_reason.c_str());
  }
  return 0;
}

int cmd_time(const Args& args) {
  std::vector<simarch::GemmShape> shapes;
  for (const auto& [op, shape] : args.queries) {
    if (op == blas::OpKind::kGemm) shapes.push_back(shape);
  }
  if (shapes.empty()) usage("time needs --shape");
  auto executor = make_backend(args.platform);
  for (const auto& shape : shapes) {
    if (args.threads > 0) {
      const double t =
          executor->measure_op(blas::OpKind::kGemm, shape, args.threads);
      std::printf("%ldx%ldx%ld @ %d threads: %.1f us (%.1f GFLOPS)\n",
                  shape.m, shape.k, shape.n, args.threads, 1e6 * t,
                  shape.flops() / t / 1e9);
    } else {
      std::printf("%ldx%ldx%ld thread sweep on %s:\n", shape.m, shape.k,
                  shape.n, args.platform.c_str());
      for (int p : core::default_thread_grid(executor->max_threads())) {
        const double t = executor->measure_op(blas::OpKind::kGemm, shape, p);
        std::printf("  p=%3d  %12.1f us  %8.1f GFLOPS\n", p, 1e6 * t,
                    shape.flops() / t / 1e9);
      }
    }
  }
  return 0;
}

int cmd_publish(const Args& args) {
  if (args.shm.empty()) usage("publish needs --shm PATH");
  const std::string model_path = args.dir + "/model.json";
  const std::string config_path = args.dir + "/config.json";
  // Validate before publishing: a region must never carry bytes the serving
  // ladder would reject (attachers would all degrade at once).
  auto loaded = core::AdsalaGemm::try_load(model_path, config_path);
  if (!loaded.ok()) {
    report_error(loaded.error());
    return exit_code_for(loaded.error().code);
  }
  auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  const Error err = core::publish_shm_region(args.shm, slurp(model_path),
                                             slurp(config_path));
  if (!err.ok()) {
    report_error(err);
    return exit_code_for(err.code);
  }
  std::printf("published %s -> %s (platform %s, model %s)\n",
              args.dir.c_str(), args.shm.c_str(),
              loaded.value().platform().c_str(),
              loaded.value().model_name().c_str());
  return 0;
}

int cmd_serve(const Args& args) {
  if (args.socket.empty()) usage("serve needs --socket PATH");
  if (args.reattach && args.shm.empty()) {
    usage("serve --reattach needs --shm PATH (the region to watch)");
  }
  int exit_code = 0;
  auto runtime = load_runtime(args, &exit_code);
  if (runtime == nullptr) return exit_code;
  std::printf("serving platform %s, model %s (mode %s) on %s%s\n",
              runtime->platform().c_str(), runtime->model_name().c_str(),
              core::serving_mode_name(runtime->serving_mode()),
              args.socket.c_str(),
              args.reattach ? " (reattach on new shm generations)" : "");
  std::fflush(stdout);
  daemon::ServeOptions options;
  options.socket_path = args.socket;
  options.max_requests = args.max_requests;
  options.io_timeout_ms = args.io_timeout_ms;
  if (args.reattach) options.reattach_shm = args.shm;
  const Error err = daemon::serve(*runtime, options);
  if (!err.ok()) {
    report_error(err);
    return exit_code_for(err.code);
  }
  return 0;
}

/// Traffic generator for the retuning loop: measures sampled shapes on the
/// chosen backend across the serving grid, recording every measurement into
/// the telemetry log through the runtime's own sampler (1-in-1 sampling, so
/// the log carries exactly what was measured).
int cmd_sample(const Args& args) {
  if (args.telemetry.empty()) usage("sample needs --telemetry PATH");
  int exit_code = 0;
  auto runtime = load_runtime(args, &exit_code);
  if (runtime == nullptr) return exit_code;

  auto opened = core::TelemetryLog::open(args.telemetry);
  if (!opened.ok()) {
    report_error(opened.error());
    return exit_code_for(opened.error().code);
  }
  auto log =
      std::make_shared<core::TelemetryLog>(std::move(opened).value());
  runtime->enable_sampling(log, 1);

  auto executor = make_backend(args.platform);
  sampling::DomainConfig domain;
  domain.memory_cap_bytes = args.cap_mb * 1024ull * 1024;
  for (const auto op : args.ops) {
    const auto& traits = core::op_traits(op);
    auto sampler = traits.make_sampler(domain);
    for (const auto& shape : sampler->sample(args.samples)) {
      long x = 0, y = 0, z = 0;
      traits.from_shape(shape, &x, &y, &z);
      for (int p : runtime->thread_grid()) {
        const double seconds = executor->measure_op(op, shape, p, 3);
        runtime->record_sample(op, x, y, z, shape.elem_bytes, p,
                               static_cast<std::uint64_t>(seconds * 1e9));
      }
    }
  }
  if (const Error err = log->flush(); !err.ok()) {
    report_error(err);
    return exit_code_for(err.code);
  }
  std::printf("sampled %llu records into %s (%llu dropped)\n",
              static_cast<unsigned long long>(runtime->samples_recorded()),
              args.telemetry.c_str(),
              static_cast<unsigned long long>(runtime->samples_dropped()));
  return runtime->samples_dropped() == 0 ? 0 : 1;
}

int cmd_retune(const Args& args) {
  if (args.telemetry.empty()) usage("retune needs --telemetry PATH");
  core::RetuneOptions options;
  options.telemetry_path = args.telemetry;
  options.artefact_dir = args.dir;
  options.drift.threshold = args.threshold;
  options.drift.window = args.window;
  options.drift.min_groups = args.min_groups;
  options.force = args.force;
  options.train.tune = args.tune;
  options.train.candidates = args.models;
  options.publish_shm = args.shm;

  auto result = core::retune(options);
  if (!result.ok()) {
    report_error(result.error());
    return exit_code_for(result.error().code);
  }
  const core::RetuneReport& report = result.value();
  std::printf("telemetry: %zu records (%zu in drift window)\n",
              report.telemetry_records, report.drift.window_records);
  for (const auto& stats : report.drift.per_op) {
    std::printf("  %-6s %4zu records %3zu groups  mean regret %6.2f%%  "
                "max %6.2f%%%s\n",
                blas::op_name(stats.op), stats.records, stats.groups,
                100.0 * stats.mean_regret, 100.0 * stats.max_regret,
                stats.fired ? "  DRIFT" : "");
  }
  if (!report.retrained) {
    std::printf("no drift above threshold %.0f%%; artefacts unchanged "
                "(version %llu)\n",
                100.0 * args.threshold,
                static_cast<unsigned long long>(report.previous_version));
    return 0;
  }
  std::printf("retrained (model %s): version %llu -> %llu%s\n",
              report.selected_model.c_str(),
              static_cast<unsigned long long>(report.previous_version),
              static_cast<unsigned long long>(report.new_version),
              args.shm.empty() ? "" : ", republished to shm");
  return 0;
}

int cmd_rollback(const Args& args) {
  if (args.to_version == 0) usage("rollback needs --to VERSION");
  auto result =
      core::rollback(args.dir, args.to_version, args.shm, nullptr);
  if (!result.ok()) {
    report_error(result.error());
    return exit_code_for(result.error().code);
  }
  std::printf("rolled back to retained version %llu, now current as "
              "version %llu%s\n",
              static_cast<unsigned long long>(args.to_version),
              static_cast<unsigned long long>(result.value()),
              args.shm.empty() ? "" : ", republished to shm");
  return 0;
}

int cmd_versions(const Args& args) {
  const std::uint64_t current = core::artefact_version(args.dir);
  if (current == 0) {
    std::printf("%s: unversioned (no VERSION file yet)\n", args.dir.c_str());
    return 0;
  }
  std::printf("current: %llu\nretained:",
              static_cast<unsigned long long>(current));
  for (const std::uint64_t v : core::retained_artefact_versions(args.dir)) {
    std::printf(" %llu", static_cast<unsigned long long>(v));
  }
  std::printf("\n");
  return 0;
}

/// Test-only misbehaving client: connect, send a few bytes of a frame,
/// hold the connection while sleeping, exit. Exercises the daemon's
/// per-connection io deadline (a wedged client must cost one timeout, not
/// the whole service).
int run_wedge_client(const std::string& socket_path, int wedge_ms) {
  sockaddr_un addr{};
  if (socket_path.size() >= sizeof(addr.sun_path)) usage("socket path too long");
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return 1;
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    const Error err{ErrorCode::kUnavailable,
                    socket_path + ": wedge client cannot connect"};
    report_error(err);
    return exit_code_for(err.code);
  }
  const std::uint8_t partial[4] = {daemon::kProtocolVersion, 0, 4, 0};
  (void)::send(fd, partial, sizeof(partial), MSG_NOSIGNAL);
  std::printf("wedged on %s for %d ms (4 of %zu frame bytes sent)\n",
              socket_path.c_str(), wedge_ms, daemon::kRequestBytes);
  std::fflush(stdout);
  timespec ts{wedge_ms / 1000, static_cast<long>(wedge_ms % 1000) * 1000000};
  while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
  ::close(fd);
  return 0;
}

int cmd_query(const Args& args) {
  if (args.socket.empty()) usage("query needs --socket PATH");
  if (args.wedge_ms > 0) return run_wedge_client(args.socket, args.wedge_ms);
  if (args.queries.size() != 1) {
    usage("query needs exactly one --shape or family flag");
  }
  const auto& [op, shape] = args.queries.front();
  const auto& traits = core::op_traits(op);
  long coords[3] = {0, 0, 0};
  traits.from_shape(shape, &coords[0], &coords[1], &coords[2]);

  if (args.retry) {
    // Resilient path: bounded retry + breaker + in-process fallback. The
    // answer always arrives; the exit code only reflects semantic errors.
    core::ResilientClient::Options options;
    if (const char* env = std::getenv("ADSALA_RETRY_ATTEMPTS")) {
      options.max_attempts = std::atoi(env);
    }
    if (const char* env = std::getenv("ADSALA_RETRY_BACKOFF_MS")) {
      options.base_backoff_ms = std::atoi(env);
    }
    if (const char* env = std::getenv("ADSALA_BREAKER_THRESHOLD")) {
      options.breaker_threshold = std::atoi(env);
    }
    if (const char* env = std::getenv("ADSALA_BREAKER_OPEN_MS")) {
      options.breaker_open_ms = std::atoi(env);
    }
    options.fallback_loader = [&args]() {
      if (!args.shm.empty()) {
        if (auto attached = core::AdsalaGemm::try_attach(args.shm);
            attached.ok()) {
          return std::move(attached).value();
        }
        return core::AdsalaGemm::heuristic_fallback();
      }
      return core::AdsalaGemm::load_or_fallback(args.dir + "/model.json",
                                                args.dir + "/config.json");
    };
    core::ResilientClient client(
        [&args](const core::ServeQuery& q)
            -> Expected<core::ServeAnswer> {
          daemon::Request req;
          req.op_code = static_cast<std::uint8_t>(blas::op_code(q.op));
          req.elem_bytes = static_cast<std::uint8_t>(q.elem_bytes);
          req.x = q.x;
          req.y = q.y;
          req.z = q.z;
          auto ans = daemon::query(args.socket, req, args.io_timeout_ms);
          if (!ans.ok()) return ans.error();
          if (ans.value().status != ErrorCode::kOk) {
            return Error{ans.value().status, "daemon rejected the request"};
          }
          core::ServeAnswer out;
          out.threads = static_cast<int>(ans.value().threads);
          out.mode = ans.value().mode;
          return out;
        },
        std::move(options));

    core::ServeQuery q;
    q.op = op;
    q.x = coords[0];
    q.y = coords[1];
    q.z = coords[2];
    auto answer = client.query(q);
    if (!answer.ok()) {
      report_error(answer.error());
      return exit_code_for(answer.error().code);
    }
    std::printf("%s", blas::op_name(op));
    for (int d = 0; d < traits.family_dims; ++d) {
      std::printf(" %s=%ld", traits.coord_names[d], coords[d]);
    }
    std::printf(" -> %d threads (mode %s%s)\n", answer.value().threads,
                core::serving_mode_name(
                    static_cast<core::ServingMode>(answer.value().mode)),
                answer.value().from_fallback ? ", local fallback" : "");
    return 0;
  }

  daemon::Request req;
  req.op_code = static_cast<std::uint8_t>(blas::op_code(op));
  req.elem_bytes = 4;
  req.x = coords[0];
  req.y = coords[1];
  req.z = coords[2];
  if (args.send_malformed) {
    // Deliberately violate the protocol (wrong version byte) so CI can
    // drive the daemon's protocol-error path over a real socket.
    req.version = 0x7F;
  }

  auto answer = daemon::query(args.socket, req, args.io_timeout_ms);
  if (!answer.ok()) {
    report_error(answer.error());
    return exit_code_for(answer.error().code);
  }
  const daemon::Ack& ack = answer.value();
  if (ack.status != ErrorCode::kOk) {
    const Error err{ack.status, "daemon rejected the request"};
    report_error(err);
    return exit_code_for(err.code);
  }
  std::printf("%s", blas::op_name(op));
  for (int d = 0; d < traits.family_dims; ++d) {
    std::printf(" %s=%ld", traits.coord_names[d], coords[d]);
  }
  std::printf(" -> %u threads (mode %s)\n", ack.threads,
              core::serving_mode_name(
                  static_cast<core::ServingMode>(ack.mode)));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    if (args.command == "install") return cmd_install(args);
    if (args.command == "predict") return cmd_predict(args);
    if (args.command == "inspect") return cmd_inspect(args);
    if (args.command == "time") return cmd_time(args);
    if (args.command == "publish") return cmd_publish(args);
    if (args.command == "serve") return cmd_serve(args);
    if (args.command == "query") return cmd_query(args);
    if (args.command == "sample") return cmd_sample(args);
    if (args.command == "retune") return cmd_retune(args);
    if (args.command == "rollback") return cmd_rollback(args);
    if (args.command == "versions") return cmd_versions(args);
  } catch (const std::bad_alloc&) {
    const Error err{ErrorCode::kResourceExhausted, "out of memory"};
    report_error(err);
    return exit_code_for(err.code);
  } catch (const std::out_of_range& e) {
    // A decodable artefact missing an expected field (Json::at).
    const Error err{ErrorCode::kValidationError, e.what()};
    report_error(err);
    return exit_code_for(err.code);
  } catch (const std::exception& e) {
    const Error err{ErrorCode::kInternal, e.what()};
    report_error(err);
    return exit_code_for(err.code);
  }
  usage("unknown command");
}
