// Set-up — train from the committed timings, load (or publish, attach and
// bind a daemon), warm up — with its provenance check, the in-process
// daemon, and the --regather campaign that rebuilds the committed timings.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "blas/kernels/dispatch.h"
#include "common/json.h"
#include "common/stats.h"
#include "core/executor.h"
#include "core/gather.h"
#include "core/install.h"
#include "core/shm_store.h"
#include "e2e.h"

namespace e2e {

namespace fs = std::filesystem;
namespace core = adsala::core;
using adsala::Json;
using adsala::JsonArray;
using adsala::JsonObject;

namespace {

const Key kWarmKey{OpKind::kGemm, 4, 128, 128, 128};

/// The benchmark's source directory, which holds the committed timings.
constexpr const char* kDataDir = ADSALA_E2E_DATA_DIR;

/// bench/e2e/timings_<N>cpu: the committed timings of an N-CPU host.
std::string timings_base() {
  return std::string(kDataDir) + "/timings_" + std::to_string(host_cpus()) +
         "cpu";
}

std::string sha256_hex(const std::string& data) {
  static constexpr std::uint32_t k[64] = {
      0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
      0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
      0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
      0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
      0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
      0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
      0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
      0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
      0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
      0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
      0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
  std::uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  auto rotr = [](std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); };
  std::string msg = data;
  msg += static_cast<char>(0x80);
  while (msg.size() % 64 != 56) msg += '\0';
  const std::uint64_t bits = static_cast<std::uint64_t>(data.size()) * 8;
  for (int i = 7; i >= 0; --i) msg += static_cast<char>(bits >> (8 * i));
  for (std::size_t chunk = 0; chunk < msg.size(); chunk += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = 0;
      for (int j = 0; j < 4; ++j) {
        w[i] = (w[i] << 8) | static_cast<unsigned char>(msg[chunk + 4 * i + j]);
      }
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t v[8];
    std::copy(h, h + 8, v);
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(v[4], 6) ^ rotr(v[4], 11) ^ rotr(v[4], 25);
      const std::uint32_t ch = (v[4] & v[5]) ^ (~v[4] & v[6]);
      const std::uint32_t t1 = v[7] + s1 + ch + k[i] + w[i];
      const std::uint32_t s0 = rotr(v[0], 2) ^ rotr(v[0], 13) ^ rotr(v[0], 22);
      const std::uint32_t maj = (v[0] & v[1]) ^ (v[0] & v[2]) ^ (v[1] & v[2]);
      std::copy_backward(v, v + 7, v + 8);
      v[4] += t1;
      v[0] = t1 + s0 + maj;
    }
    for (int i = 0; i < 8; ++i) h[i] += v[i];
  }
  char hex[65];
  for (int i = 0; i < 8; ++i) std::snprintf(hex + 8 * i, 9, "%08x", h[i]);
  return std::string(hex, 64);
}

/// Wakes the thread pool and faults in the packing arenas, as a caller's
/// first calls would.
void warm_up(AdsalaGemm& runtime) {
  const int n = static_cast<int>(kWarmKey.x);
  std::vector<float> a(static_cast<std::size_t>(n) * n, 0.5f);
  std::vector<float> c(a.size());
  for (int i = 0; i < 8; ++i) {
    runtime.sgemm(n, n, n, 1.0f, a.data(), n, a.data(), n, 0.0f, c.data(), n);
  }
}

Served set_up_once(bool daemon) {
  Served s;
  const std::int64_t t0 = now_ns();
  core::InstallOptions install;
  install.reuse_timings_csv = timings_base() + ".csv";
  install.train.candidates = {"xgboost"};
  install.train.tune = false;
  install.output_dir = "artefacts";
  install.save_raw_csv = false;
  fs::create_directories(install.output_dir);
  core::NativeExecutor executor;  // names the platform; nothing is timed
  const core::InstallReport report = core::install(executor, install);
  s.train_s = report.train_seconds;
  s.model_path = report.model_path;
  s.config_path = report.config_path;

  const std::int64_t t_load = now_ns();
  if (daemon) {
    const std::string region = "artefacts/region";
    const adsala::Error err = core::publish_shm_region(
        region, read_file(s.model_path), read_file(s.config_path));
    if (!err.ok()) throw std::runtime_error("shm publish: " + err.message);
    auto attached = AdsalaGemm::try_attach(region);
    if (!attached.ok()) {
      throw std::runtime_error("try_attach: " + attached.error().message);
    }
    s.runtime = std::make_unique<AdsalaGemm>(std::move(attached).value());
    s.daemon = std::make_unique<Daemon>(*s.runtime, "daemon.sock");
  } else {
    auto loaded = AdsalaGemm::try_load(s.model_path, s.config_path);
    if (!loaded.ok()) {
      throw std::runtime_error("try_load: " + loaded.error().message);
    }
    s.runtime = std::make_unique<AdsalaGemm>(std::move(loaded).value());
  }
  s.load_ms = static_cast<double>(now_ns() - t_load) * 1e-6;

  if (daemon) {
    for (int i = 0; i < 8; ++i) {
      (void)adsala::daemon::query(s.daemon->socket(), to_request(kWarmKey));
    }
  } else {
    warm_up(*s.runtime);
  }
  s.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
  return s;
}

double load_average() {
  double load[1] = {-1.0};
  return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

}  // namespace

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error(path + ": cannot read");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int host_cpus() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

void check_provenance() {
  const std::string base = timings_base();
  std::string why;
  if (!fs::exists(base + ".csv") || !fs::exists(base + ".json")) {
    why = "no committed timings for a " + std::to_string(host_cpus()) +
          "-CPU host (" + base + ".csv)";
  } else if (adsala::read_json_file(base + ".json").at("cpus").as_int() !=
             host_cpus()) {
    why = base + ".json records another CPU count";
  }
  if (why.empty()) return;
  std::string have;
  for (const auto& entry : fs::directory_iterator(kDataDir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("timings_", 0) == 0 && entry.path().extension() == ".json") {
      have += " " + name;
    }
  }
  std::fprintf(stderr,
               "adsala_e2e: %s; committed:%s. A model trained on another "
               "host's timings would be compared here, so the run stops. "
               "Gather this host's own with `adsala_e2e --regather`.\n",
               why.c_str(), have.empty() ? " none" : have.c_str());
  std::exit(2);
}

Served set_up(const Options& options, bool daemon) {
  std::vector<double> total, train, load;
  Served s;
  for (int i = 0; i < options.setups; ++i) {
    s.daemon.reset();  // stop serving before the runtime goes; free the socket
    s = set_up_once(daemon);
    total.push_back(s.setup_s);
    train.push_back(s.train_s);
    load.push_back(s.load_ms);
  }
  s.setup_s = adsala::percentile(total, 50);
  s.train_s = adsala::percentile(train, 50);
  s.load_ms = adsala::percentile(load, 50);
  s.model_sha256 = sha256_hex(read_file(s.model_path));
  return s;
}

int regather(const Options& options) {
  struct Campaign {
    const char* name;
    std::size_t shapes_per_op;
    std::size_t cap_bytes;
    long dim_max;
    std::uint64_t seed;  // domain seed; the traces draw from other streams
  };
  const Campaign campaigns[] = {
      {"small", 100, 256u * 1024, 256, 101},
      {"medium", 60, 16u * 1024 * 1024, 16000, 202},
  };
  const int cpus = host_cpus();
  core::NativeExecutor executor(cpus);
  const double load_start = load_average();
  const std::int64_t t0 = now_ns();

  core::GatherData all;
  JsonArray campaign_json;
  for (const Campaign& c : campaigns) {
    core::GatherConfig cfg;
    cfg.n_samples = options.scaled(c.shapes_per_op);
    cfg.thread_grid = core::default_thread_grid(cpus);
    cfg.domain.memory_cap_bytes = c.cap_bytes;
    cfg.domain.dim_max = c.dim_max;
    cfg.domain.elem_bytes = 4;
    cfg.domain.seed = c.seed;
    const auto ops = adsala::blas::all_ops();
    cfg.ops.assign(ops.begin(), ops.end());
    std::fprintf(stderr, "[e2e] gathering %s campaign (%zu shapes/op)...\n",
                 c.name, cfg.n_samples);
    core::GatherData data = core::gather_timings(executor, cfg);
    if (all.records.empty()) {
      all = std::move(data);
    } else {
      all.records.insert(all.records.end(), data.records.begin(),
                         data.records.end());
    }
    JsonObject cj;
    cj["name"] = Json(c.name);
    cj["shapes_per_op"] = Json(cfg.n_samples);
    cj["iterations"] = Json(cfg.iterations);
    cj["memory_cap_bytes"] = Json(c.cap_bytes);
    cj["dim_max"] = Json(c.dim_max);
    cj["seed"] = Json(static_cast<double>(c.seed));
    campaign_json.emplace_back(std::move(cj));
  }
  const std::string base = timings_base();
  all.save_csv(base + ".csv");

  std::string git_sha = "unknown";
  const std::string cmd =
      "git -C '" + std::string(kDataDir) + "' rev-parse HEAD 2>/dev/null";
  if (std::FILE* pipe = ::popen(cmd.c_str(), "r")) {
    char buf[64] = {0};
    if (std::fgets(buf, sizeof buf, pipe) != nullptr &&
        std::strlen(buf) >= 40) {
      git_sha.assign(buf, 40);
    }
    ::pclose(pipe);
  }
  JsonArray grid;
  for (int p : all.thread_grid) grid.emplace_back(p);
  Json sidecar;
  sidecar["cpus"] = Json(cpus);
  sidecar["kernel_tier"] = Json(adsala::blas::kernels::variant_name(
      adsala::blas::kernels::active_variant()));
#ifdef NDEBUG
  sidecar["build_type"] = Json("release");
#else
  sidecar["build_type"] = Json("debug");
#endif
  sidecar["load_avg_start"] = Json(load_start);
  sidecar["load_avg_end"] = Json(load_average());
  sidecar["git_sha"] = Json(git_sha);
  sidecar["gather_s"] = Json(static_cast<double>(now_ns() - t0) * 1e-9);
  sidecar["thread_grid"] = Json(std::move(grid));
  sidecar["elem_bytes"] = Json(4);
  sidecar["ops"] = Json("gemm,syrk,trsm,symm,trmm");
  sidecar["records"] = Json(all.records.size());
  sidecar["campaigns"] = Json(std::move(campaign_json));
  adsala::write_json_file(base + ".json", sidecar);
  std::printf("wrote %s.csv (%zu curves) and %s.json\n", base.c_str(),
              all.records.size(), base.c_str());
  return 0;
}

Daemon::Daemon(AdsalaGemm& runtime, std::string socket)
    : socket_(std::move(socket)) {
  fs::remove(socket_);
  adsala::daemon::ServeOptions opts;
  opts.socket_path = socket_;
  opts.handle_signals = false;  // in-process server: leave signals alone
  opts.stop = &stop_;
  thread_ = std::thread([&runtime, opts] {
    try {
      const adsala::Error err = adsala::daemon::serve(runtime, opts);
      if (!err.ok()) {
        std::fprintf(stderr, "[e2e] daemon: %s\n", err.message.c_str());
      }
    } catch (const std::exception& e) {
      // The clients see the daemon gone and count their queries as failed.
      std::fprintf(stderr, "[e2e] daemon: %s\n", e.what());
    }
  });
  // serve() binds, then listens: the first answered query proves both.
  const std::int64_t give_up = now_ns() + 5'000'000'000;
  while (!adsala::daemon::query(socket_, to_request(kWarmKey), 1000).ok()) {
    if (now_ns() > give_up) {
      stop_.store(true, std::memory_order_release);
      thread_.join();
      throw std::runtime_error(socket_ + ": daemon did not come up");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
}

Daemon::~Daemon() {
  stop_.store(true, std::memory_order_release);
  // serve() polls the flag between connections; one query wakes it.
  (void)adsala::daemon::query(socket_, to_request(kWarmKey), 500);
  thread_.join();
}

}  // namespace e2e
