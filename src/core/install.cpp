#include "core/install.h"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/atomic_file.h"
#include "common/status.h"
#include "common/timer.h"
#include "core/adsala.h"
#include "core/shm_store.h"

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

namespace adsala::core {

InstallReport install(GemmExecutor& executor, const InstallOptions& options) {
  InstallReport report;

  WallTimer gather_timer;
  if (!options.reuse_timings_csv.empty()) {
    report.gathered = GatherData::load_csv(options.reuse_timings_csv);
    // The CSV carries no platform banner; stamp the executor's so the
    // artefacts stay self-describing.
    if (report.gathered.platform.empty()) {
      report.gathered.platform = executor.name();
    }
  } else {
    report.gathered = gather_timings(executor, options.gather);
  }
  report.gather_seconds = gather_timer.seconds();

  WallTimer train_timer;
  report.trained = train_and_select(report.gathered, options.train);
  report.train_seconds = train_timer.seconds();

  report.model_path = options.output_dir + "/model.json";
  report.config_path = options.output_dir + "/config.json";
  if (options.save_raw_csv) {
    report.gathered.save_csv(options.output_dir + "/timings.csv");
  }

  // Save behind tmp names and verify *those*, so the real paths are only
  // ever touched by an atomic rename of already-validated bytes: a SIGKILL
  // at any instruction leaves the previous artefacts (or nothing) at the
  // real paths, never a torn pair. The `.tmp.<pid>` names match the
  // recover_store() debris pattern, so a crash's leftovers get GC-ed.
  const std::string pid_tag = ".tmp." + std::to_string(::getpid());
  const std::string tmp_model = report.model_path + pid_tag;
  const std::string tmp_config = report.config_path + pid_tag;
  const TrainOutput& trained = report.trained;
  save_artefacts(tmp_model, tmp_config, *trained.model, trained.selected,
                 trained.pipeline, trained.thread_grid, trained.max_threads,
                 trained.platform);

  // Write-then-verify: run the freshly written pair through the serving
  // layer's full validation ladder before declaring the install done. This
  // load is what keeps the save and load formats from drifting apart. A
  // failure here is an installer bug (or a dying disk), and catching it now
  // — with the taxonomy's path-qualified message — beats every future
  // process booting into heuristic fallback.
  auto verify = AdsalaGemm::try_load(tmp_model, tmp_config);
  if (!verify.ok()) {
    ::unlink(tmp_model.c_str());
    ::unlink(tmp_config.c_str());
    throw std::runtime_error(
        "install: written artefacts fail validation (" +
        std::string(error_code_name(verify.error().code)) +
        "): " + verify.error().message);
  }
  const std::pair<const std::string*, const std::string*> renames[] = {
      {&tmp_model, &report.model_path}, {&tmp_config, &report.config_path}};
  for (const auto& [tmp, final_path] : renames) {
    if (Error err = fsync_path(*tmp); !err.ok()) {
      throw std::runtime_error("install: " + err.message);
    }
    if (std::rename(tmp->c_str(), final_path->c_str()) != 0) {
      throw std::runtime_error("install: cannot rename " + *tmp + " into " +
                               *final_path);
    }
  }
  if (Error err = fsync_dir(options.output_dir); !err.ok()) {
    throw std::runtime_error("install: " + err.message);
  }

  // Publication happens only past this point: a shm region or a live
  // runtime never receives bytes the validation ladder would reject.
  if (!options.publish_shm.empty()) {
    const Error err =
        publish_shm_region(options.publish_shm, slurp(report.model_path),
                           slurp(report.config_path));
    if (!err.ok()) {
      throw std::runtime_error("install: shm publish failed: " + err.message);
    }
  }
  if (options.publish_to != nullptr) {
    options.publish_to->install(verify.value().snapshot());
  }

  return report;
}

}  // namespace adsala::core
