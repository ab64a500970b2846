// adsala_e2e: the native end-to-end benchmark (README.md beside this file).
//
//   adsala_e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//              [--smoke]
//   adsala_e2e --regather
//
// Without --workload it runs all four workloads in turn. Each prints its
// metrics by name and unit, then one JSON line {"correct", "attempted",
// "failed", "metrics"}; the last line of standard output is the last
// workload's. Exit codes: 0 clean, 1 a failed or mismatched operation,
// 2 usage or provenance error, 3 the benchmark itself failed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "blas/kernels/dispatch.h"
#include "common/json.h"
#include "e2e.h"

namespace e2e {

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void Result::fail(const std::string& what) {
  if (++failed <= 20) std::fprintf(stderr, "[e2e] FAILED: %s\n", what.c_str());
}

int Tracer::begin(const char* name, int parent) {
  spans_.push_back({name, parent, now_ns(), 0});
  return static_cast<int>(spans_.size()) - 1;
}

std::int64_t Tracer::end(int id) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end = now_ns();
  return span.end - span.start;
}

int Tracer::add(const char* name, std::int64_t start, std::int64_t end,
                int parent) {
  spans_.push_back({name, parent, start, end});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::append(const Tracer& other) {
  const int base = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
}

double Tracer::total_s(const std::string& name) const {
  const bool prefix = !name.empty() && name.back() == '.';
  std::int64_t total = 0;
  for (const Span& span : spans_) {
    if (prefix ? std::strncmp(span.name, name.c_str(), name.size()) == 0
               : name == span.name) {
      total += span.end - span.start;
    }
  }
  return static_cast<double>(total) * 1e-9;
}

void Tracer::write(const std::string& path, const std::string& workload) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error(path + ": cannot write trace");
  std::fprintf(f, "{\"workload\":\"%s\",\"spans\":[", workload.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s\n[\"%s\",%lld,%lld,%d]", i == 0 ? "" : ",", s.name,
                 static_cast<long long>(s.start),
                 static_cast<long long>(s.end), s.parent);
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) throw std::runtime_error(path + ": write failed");
}

}  // namespace e2e

namespace {

using e2e::Options;
using e2e::Result;

struct Workload {
  const char* name;
  Result (*run)(const Options&);
};

constexpr Workload kWorkloads[] = {
    {"paper_mix", &e2e::paper_mix},
    {"small_stream", &e2e::small_stream},
    {"hot_repeat", &e2e::hot_repeat},
    {"serve_daemon", &e2e::serve_daemon},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "adsala_e2e: %s\n"
               "usage: adsala_e2e [--workload paper_mix|small_stream|"
               "hot_repeat|serve_daemon]\n"
               "                  [--seed N] [--seconds S] [--trace 0|1] "
               "[--smoke]\n"
               "       adsala_e2e --regather\n",
               why);
  std::exit(2);
}

/// Directory of this executable: the run directory lives under it, inside
/// the build tree.
std::filesystem::path exe_dir() {
  std::error_code ec;
  const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
  return ec ? std::filesystem::current_path() : exe.parent_path();
}

void print(const char* workload, const Options& o, const Result& r) {
  std::printf("== %s (seed %llu, %.3g s, %s) ==\n", workload,
              static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? "traced" : "untraced");
  std::printf("  model_sha256 %s\n", r.model_sha256.c_str());
  std::printf("  host %d cpus, %s kernels\n", e2e::host_cpus(),
              adsala::blas::kernels::variant_name(
                  adsala::blas::kernels::active_variant()));
  for (const auto& [name, metric] : r.metrics) {
    std::printf("  %-28s %16.6g %s\n", name.c_str(), metric.first,
                metric.second.c_str());
  }
  std::printf("  attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  adsala::JsonObject metrics;
  for (const auto& [name, metric] : r.metrics) {
    adsala::JsonObject m;
    m["value"] = adsala::Json(metric.first);
    m["unit"] = adsala::Json(metric.second);
    metrics[name] = adsala::Json(std::move(m));
  }
  adsala::JsonObject line;
  line["correct"] = adsala::Json(r.failed == 0);
  line["attempted"] = adsala::Json(static_cast<double>(r.attempted));
  line["failed"] = adsala::Json(static_cast<double>(r.failed));
  line["metrics"] = adsala::Json(std::move(metrics));
  std::printf("%s\n", adsala::Json(std::move(line)).dump().c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool regather = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    try {
      if (arg == "--workload") o.workload = value();
      else if (arg == "--seed") o.seed = std::stoull(value());
      else if (arg == "--seconds") o.seconds = std::stod(value());
      else if (arg == "--trace") o.trace = std::stoi(value()) != 0;
      else if (arg == "--smoke") o.smoke = true;
      else if (arg == "--regather") regather = true;
      else usage(("unknown argument " + arg).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  if (o.smoke) {
    o.trace = true;
    o.setups = 1;
    o.seconds = std::max(0.2, o.seconds / 50.0);
  }
  bool known = o.workload.empty();
  for (const Workload& w : kWorkloads) known = known || o.workload == w.name;
  if (!known) usage(("unknown workload " + o.workload).c_str());

  try {
    if (regather) return e2e::regather(o);
    e2e::check_provenance();
    const std::filesystem::path run_dir = exe_dir() / "run";
    // Sockets and artefacts use paths relative to the run directory, so
    // every path the benchmark touches stays inside it.
    std::filesystem::create_directories(run_dir);
    std::filesystem::current_path(run_dir);

    bool clean = true;
    for (const Workload& w : kWorkloads) {
      if (!o.workload.empty() && o.workload != w.name) continue;
      const Result r = w.run(o);
      print(w.name, o, r);
      clean = clean && r.failed == 0;
    }
    return clean ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "adsala_e2e: %s\n", e.what());
    return 3;
  }
}
