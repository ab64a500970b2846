#include "core/retune.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "common/atomic_file.h"
#include "common/failpoint.h"
#include "core/adsala.h"
#include "core/install.h"
#include "core/shm_store.h"

namespace adsala::core {

namespace fs = std::filesystem;

namespace {

std::string version_path(const std::string& dir) { return dir + "/VERSION"; }

std::string retained_dir(const std::string& dir, std::uint64_t v) {
  return dir + "/versions/" + std::to_string(v);
}

Error write_version(const std::string& dir, std::uint64_t v) {
  return atomic_write_file(version_path(dir), std::to_string(v) + "\n");
}

bool retained_complete(const std::string& dir, std::uint64_t v) {
  return fs::exists(retained_dir(dir, v) + "/model.json") &&
         fs::exists(retained_dir(dir, v) + "/config.json");
}

/// Copies the current artefact pair into versions/<v>/ (overwrite).
Error retain_current(const std::string& dir, std::uint64_t v) {
  std::error_code ec;
  fs::create_directories(retained_dir(dir, v), ec);
  if (ec) {
    return Error{ErrorCode::kInternal,
                 retained_dir(dir, v) + ": " + ec.message()};
  }
  for (const char* name : {"model.json", "config.json"}) {
    fs::copy_file(dir + "/" + name, retained_dir(dir, v) + "/" + name,
                  fs::copy_options::overwrite_existing, ec);
    if (ec) {
      return Error{ErrorCode::kInternal,
                   dir + "/" + name + " -> versions/" + std::to_string(v) +
                       ": " + ec.message()};
    }
  }
  return Error{};
}

/// Adopts an unversioned directory: its current artefacts become version 1
/// (or the highest already-retained version, if versions/ predates VERSION).
/// Returns the current version.
Expected<std::uint64_t> ensure_versioned(const std::string& dir) {
  std::uint64_t v = artefact_version(dir);
  if (v != 0) return v;
  const auto retained = retained_artefact_versions(dir);
  v = retained.empty() ? 1 : retained.back();
  if (Error err = write_version(dir, v); !err.ok()) return err;
  if (!fs::exists(retained_dir(dir, v) + "/model.json")) {
    if (Error err = retain_current(dir, v); !err.ok()) return err;
  }
  return v;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Executor stand-in for the reuse_timings_csv install path: carries the
/// preserved platform name (the only thing install() asks of it when the
/// timing campaign is skipped) and refuses to measure.
class PlatformStubExecutor : public GemmExecutor {
 public:
  PlatformStubExecutor(std::string platform, int max_threads)
      : platform_(std::move(platform)), max_threads_(max_threads) {}

  std::string name() const override { return platform_; }
  int max_threads() const override { return max_threads_; }
  double measure_op(blas::OpKind, const simarch::GemmShape&, int,
                    int) override {
    throw std::logic_error(
        "retune: the platform stub executor cannot measure (telemetry "
        "already carries the timings)");
  }

 private:
  std::string platform_;
  int max_threads_ = 0;
};

}  // namespace

GatherData telemetry_to_gather_data(std::span<const TelemetryRecord> records) {
  // (op code, m, k, n, elem, kernel code) -> curve under construction.
  using Key = std::tuple<int, long, long, long, int, int>;
  std::vector<Key> order;  // first-appearance order
  std::map<Key, std::map<int, std::uint64_t>> curves;  // threads -> min ns

  for (const TelemetryRecord& rec : records) {
    if (rec.measured_ns == 0 || rec.threads <= 0) continue;
    const Key key{blas::op_code(rec.op), rec.m,
                  rec.k,                 rec.n,
                  rec.elem_bytes,        static_cast<int>(rec.kernel)};
    auto [it, inserted] = curves.emplace(key, std::map<int, std::uint64_t>{});
    if (inserted) order.push_back(key);
    auto [at, fresh] = it->second.emplace(rec.threads, rec.measured_ns);
    if (!fresh) at->second = std::min(at->second, rec.measured_ns);
  }

  GatherData out;
  for (const Key& key : order) {
    GatherRecord rec;
    rec.op = *blas::op_from_code(std::get<0>(key));
    rec.shape = simarch::GemmShape{std::get<1>(key), std::get<2>(key),
                                   std::get<3>(key),
                                   static_cast<int>(std::get<4>(key))};
    rec.variant = static_cast<blas::kernels::Variant>(std::get<5>(key));
    for (const auto& [threads, ns] : curves[key]) {
      rec.threads.push_back(threads);
      rec.runtime.push_back(static_cast<double>(ns) * 1e-9);
    }
    out.records.push_back(std::move(rec));
  }
  // Mirror GatherData::load_csv's convention (first curve defines the grid)
  // so the in-memory data and its CSV round-trip train identically.
  if (!out.records.empty()) {
    out.thread_grid = out.records.front().threads;
    out.max_threads = out.thread_grid.back();
  }
  return out;
}

std::uint64_t artefact_version(const std::string& dir) {
  std::ifstream in(version_path(dir));
  std::uint64_t v = 0;
  if (in >> v) return v;
  return 0;
}

std::vector<std::uint64_t> retained_artefact_versions(const std::string& dir) {
  std::vector<std::uint64_t> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir + "/versions", ec)) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    if (name.empty() ||
        name.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    const std::uint64_t v = std::stoull(name);
    if (retained_complete(dir, v)) out.push_back(v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Error promote_artefacts(const std::string& dir, const std::string& model_json,
                        const std::string& config_json,
                        std::uint64_t version) {
  failpoint::crash_if("promote-crash-after-stage");
  std::error_code ec;
  const std::string versions = dir + "/versions";
  fs::create_directories(versions, ec);
  if (ec) return Error{ErrorCode::kInternal, versions + ": " + ec.message()};

  // Phase 1 — durable retained copy. Built behind a same-directory tmp
  // name, fsynced, then renamed in: versions/<v> is either absent or
  // complete, never half-written.
  const std::string tmp = versions + "/" + std::to_string(version) + ".tmp." +
                          std::to_string(::getpid());
  fs::remove_all(tmp, ec);
  ec.clear();
  fs::create_directories(tmp, ec);
  if (ec) return Error{ErrorCode::kInternal, tmp + ": " + ec.message()};
  const std::pair<const char*, const std::string*> files[] = {
      {"model.json", &model_json}, {"config.json", &config_json}};
  for (const auto& [name, bytes] : files) {
    const std::string path = tmp + "/" + name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes->data(), static_cast<std::streamsize>(bytes->size()));
    out.close();
    if (!out) {
      return Error{ErrorCode::kInternal, path + ": cannot write staged copy"};
    }
    if (Error err = fsync_path(path); !err.ok()) return err;
  }
  if (Error err = fsync_dir(tmp); !err.ok()) return err;
  failpoint::crash_if("promote-crash-mid-retain");

  const std::string dst = retained_dir(dir, version);
  fs::remove_all(dst, ec);
  if (std::rename(tmp.c_str(), dst.c_str()) != 0) {
    return Error{ErrorCode::kInternal,
                 tmp + " -> " + dst + ": cannot rename retained copy in"};
  }
  if (Error err = fsync_dir(versions); !err.ok()) return err;
  failpoint::crash_if("promote-crash-after-retain");

  // Phase 2 — current mirror, one atomic replace per file. A crash between
  // the two leaves a torn mirror, but versions/<v> is already complete, so
  // recover_store() repairs the mirror from it and rolls VERSION forward.
  if (Error err = atomic_write_file(dir + "/model.json", model_json);
      !err.ok()) {
    return err;
  }
  failpoint::crash_if("promote-crash-mid-promote");
  if (Error err = atomic_write_file(dir + "/config.json", config_json);
      !err.ok()) {
    return err;
  }
  failpoint::crash_if("promote-crash-after-promote");

  // Phase 3 — VERSION last: the commit record.
  if (Error err = write_version(dir, version); !err.ok()) return err;
  failpoint::crash_if("promote-crash-after-version");
  return Error{};
}

Expected<RecoveryReport> recover_store(const std::string& dir) {
  RecoveryReport report;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Error{ErrorCode::kNotFound, dir + ": not a directory"};
  }

  // Garbage-collect crash debris: atomic_write_file temp names at the top
  // level, tmp/incomplete dirs under versions/, and an orphaned staging/
  // (retune rebuilds it from scratch every run).
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (is_tmp_debris_name(name)) {
      std::error_code rm;
      fs::remove_all(entry.path(), rm);
      if (!rm) ++report.debris_removed;
    }
  }
  if (fs::exists(dir + "/staging")) {
    std::error_code rm;
    fs::remove_all(dir + "/staging", rm);
    if (!rm) ++report.debris_removed;
  }
  const std::string versions = dir + "/versions";
  ec.clear();
  for (const auto& entry : fs::directory_iterator(versions, ec)) {
    const std::string name = entry.path().filename().string();
    const bool tmp_name = name.find(".tmp.") != std::string::npos;
    const bool numeric =
        !name.empty() &&
        name.find_first_not_of("0123456789") == std::string::npos;
    const bool incomplete =
        numeric && !retained_complete(dir, std::stoull(name));
    if (tmp_name || incomplete || (!numeric && !tmp_name)) {
      std::error_code rm;
      fs::remove_all(entry.path(), rm);
      if (!rm) ++report.debris_removed;
    }
  }

  const std::uint64_t recorded = artefact_version(dir);
  const auto retained = retained_artefact_versions(dir);
  const std::uint64_t highest = retained.empty() ? 0 : retained.back();
  if (recorded == 0 && highest == 0) return report;  // unversioned store

  if (highest > recorded) {
    // A promote completed its retained copy but crashed before (or during)
    // the mirror/VERSION writes: roll forward. The retained copy is the
    // durable truth; the mirror is rebuilt from it atomically.
    const std::string src = retained_dir(dir, highest);
    for (const char* name : {"model.json", "config.json"}) {
      if (Error err = atomic_write_file(dir + "/" + std::string(name),
                                        slurp(src + "/" + name));
          !err.ok()) {
        return err;
      }
    }
    if (Error err = write_version(dir, highest); !err.ok()) return err;
    report.repaired = true;
    report.version = highest;
    return report;
  }

  if (highest == recorded) {
    // Defensive: VERSION and retention agree, but verify the mirror really
    // carries those bytes (repairs any torn mirror outside our own crash
    // windows — a half-finished manual copy, say).
    const std::string src = retained_dir(dir, recorded);
    bool mismatch = false;
    for (const char* name : {"model.json", "config.json"}) {
      if (slurp(dir + "/" + std::string(name)) !=
          slurp(src + "/" + std::string(name))) {
        mismatch = true;
      }
    }
    if (mismatch) {
      for (const char* name : {"model.json", "config.json"}) {
        if (Error err = atomic_write_file(dir + "/" + std::string(name),
                                          slurp(src + "/" + name));
            !err.ok()) {
          return err;
        }
      }
      report.repaired = true;
    }
    report.version = recorded;
    return report;
  }

  // VERSION ahead of every retained copy. No crash of promote_artefacts
  // produces this (retention lands before VERSION moves); repair the
  // retention from the mirror when possible.
  if (fs::exists(dir + "/model.json") && fs::exists(dir + "/config.json")) {
    if (Error err = promote_artefacts(dir, slurp(dir + "/model.json"),
                                      slurp(dir + "/config.json"), recorded);
        !err.ok()) {
      return err;
    }
    report.repaired = true;
    report.version = recorded;
    return report;
  }
  return Error{ErrorCode::kValidationError,
               dir + ": VERSION names " + std::to_string(recorded) +
                   " but no retained copy or current mirror carries it"};
}

Expected<RetuneReport> retune(const RetuneOptions& options) {
  const std::string& dir = options.artefact_dir;
  // Resolve any crash debris from a previous torn promote before loading:
  // the mirror may be the thing that needs repairing.
  if (auto recovered = recover_store(dir);
      !recovered.ok() && recovered.error().code != ErrorCode::kNotFound) {
    return recovered.error();
  }
  auto current =
      AdsalaGemm::try_load(dir + "/model.json", dir + "/config.json");
  if (!current.ok()) return current.error();

  auto records = read_telemetry_log(options.telemetry_path);
  if (!records.ok()) return records.error();

  RetuneReport report;
  report.telemetry_records = records.value().size();
  report.previous_version = artefact_version(dir);
  report.new_version = report.previous_version;
  if (records.value().size() < options.min_records) {
    return Error{ErrorCode::kPreconditionFailed,
                 options.telemetry_path + ": " +
                     std::to_string(records.value().size()) +
                     " telemetry records, need at least " +
                     std::to_string(options.min_records) + " to retune"};
  }

  const auto snapshot = current.value().snapshot();
  report.drift =
      detect_drift(records.value(), *snapshot, options.drift);
  if (!report.drift.fired && !options.force) {
    return report;  // healthy model: nothing to do, by design
  }

  // Train on the same record window the detector judged, so "what fired"
  // and "what we retrain on" are the same traffic.
  std::span<const TelemetryRecord> window(records.value());
  if (options.drift.window > 0 && window.size() > options.drift.window) {
    window = window.subspan(window.size() - options.drift.window);
  }
  GatherData data = telemetry_to_gather_data(window);
  data.platform = current.value().platform();
  if (data.records.size() < 10) {
    return Error{ErrorCode::kPreconditionFailed,
                 options.telemetry_path + ": telemetry covers only " +
                     std::to_string(data.records.size()) +
                     " distinct shape curves; the trainer needs >= 10"};
  }

  auto prev = ensure_versioned(dir);
  if (!prev.ok()) return prev.error();
  report.previous_version = prev.value();
  if (Error err = retain_current(dir, prev.value()); !err.ok()) return err;

  // Stage the retrain next to the store: install() writes and verifies
  // there, so the *current* artefacts are replaced only by bytes the full
  // serving ladder has already accepted.
  const std::string staging = dir + "/staging";
  std::error_code ec;
  fs::create_directories(staging, ec);
  if (ec) return Error{ErrorCode::kInternal, staging + ": " + ec.message()};
  const std::string csv = staging + "/retune_timings.csv";
  data.save_csv(csv);

  PlatformStubExecutor stub(current.value().platform(),
                            current.value().max_threads());
  InstallOptions io;
  io.reuse_timings_csv = csv;
  io.train = options.train;
  io.output_dir = staging;
  io.save_raw_csv = false;
  io.publish_shm = options.publish_shm;
  io.publish_to = options.publish_to;
  try {
    const InstallReport ir = install(stub, io);
    report.selected_model = ir.trained.selected;
  } catch (const std::exception& e) {
    return Error{ErrorCode::kInternal, std::string("retune: ") + e.what()};
  }

  // Verified: promote the staged pair crash-safely (durable retained copy
  // -> atomic mirror replace -> VERSION last; see promote_artefacts).
  report.new_version = prev.value() + 1;
  if (Error err =
          promote_artefacts(dir, slurp(staging + "/model.json"),
                            slurp(staging + "/config.json"),
                            report.new_version);
      !err.ok()) {
    return err;
  }
  fs::remove_all(staging, ec);  // hygiene; recover_store would GC it anyway
  report.retrained = true;
  return report;
}

Expected<std::uint64_t> rollback(const std::string& dir,
                                 std::uint64_t version,
                                 const std::string& publish_shm,
                                 AdsalaGemm* publish_to) {
  if (auto recovered = recover_store(dir);
      !recovered.ok() && recovered.error().code != ErrorCode::kNotFound) {
    return recovered.error();
  }
  const std::string src = retained_dir(dir, version);
  if (!fs::exists(src + "/model.json") || !fs::exists(src + "/config.json")) {
    return Error{ErrorCode::kPreconditionFailed,
                 dir + ": version " + std::to_string(version) +
                     " is not retained under versions/"};
  }
  // Re-validate the retained copy before touching anything: a bit-rotted
  // retained version must fail loudly, not get republished.
  auto validated =
      AdsalaGemm::try_load(src + "/model.json", src + "/config.json");
  if (!validated.ok()) return validated.error();

  auto cur = ensure_versioned(dir);
  if (!cur.ok()) return cur.error();

  const std::uint64_t next = cur.value() + 1;
  if (Error err = promote_artefacts(dir, slurp(src + "/model.json"),
                                    slurp(src + "/config.json"), next);
      !err.ok()) {
    return err;
  }

  if (!publish_shm.empty()) {
    const Error err = publish_shm_region(publish_shm,
                                         slurp(dir + "/model.json"),
                                         slurp(dir + "/config.json"));
    if (!err.ok()) return err;
  }
  if (publish_to != nullptr) {
    publish_to->install(validated.value().snapshot());
  }
  return next;
}

}  // namespace adsala::core
