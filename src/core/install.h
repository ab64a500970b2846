// One-call installation workflow (paper Fig. 2, end to end).
//
// install() runs: domain sampling -> timing gathering -> preprocessing ->
// per-model tuning -> speedup-based selection, then writes the two runtime
// artefacts (model file + config file) into a directory and returns the full
// report. This is the function a downstream user calls once per machine.
#pragma once

#include <string>

#include "core/trainer.h"

namespace adsala::core {

struct InstallOptions {
  GatherConfig gather;
  TrainOptions train;
  std::string output_dir = ".";  ///< receives model.json + config.json
  bool save_raw_csv = true;      ///< also dump gathered timings (timings.csv)
  /// When non-empty, skip the timing campaign and train from this previously
  /// saved timings.csv instead. This is how an expensive native-host gather
  /// (e.g. the end-to-end benchmark's committed timings) is re-trained
  /// without re-timing: one install() call turns an existing CSV into fresh
  /// runtime artefacts.
  std::string reuse_timings_csv;
  /// When non-empty, also publish the write-then-verified artefact bytes
  /// into a shared-memory region at this path (core/shm_store.h), so every
  /// process attached via AdsalaGemm::try_attach picks the new model up on
  /// its next attach. Publication happens only *after* verification passes:
  /// a region never carries bytes the serving ladder would reject.
  std::string publish_shm;
  /// When non-null, hot-swap the verified artefacts into this live runtime
  /// (AdsalaGemm::install, version bump; in-flight queries finish on the old
  /// generation). This is the continual-retuning hook: the same object keeps
  /// serving while a retrain lands.
  class AdsalaGemm* publish_to = nullptr;
};

struct InstallReport {
  TrainOutput trained;
  GatherData gathered;
  std::string model_path;
  std::string config_path;
  double gather_seconds = 0.0;  ///< wall time of the gathering phase
  double train_seconds = 0.0;   ///< wall time of tuning + selection
};

InstallReport install(GemmExecutor& executor, const InstallOptions& options);

}  // namespace adsala::core
