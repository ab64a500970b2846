// Per-layer probes of the traced run (README.md, "Per-layer metrics"). Each
// times one layer's public functions directly, over the workload's own
// distinct keys where the layer takes a key.
#include <filesystem>
#include <functional>
#include <numeric>
#include <stdexcept>

#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/shm_store.h"
#include "core/telemetry_log.h"
#include "e2e.h"

namespace e2e {

namespace core = adsala::core;

std::shared_ptr<core::TelemetryLog> open_log(const std::string& path) {
  std::filesystem::remove(path);
  auto log = core::TelemetryLog::open(path);
  if (!log.ok()) throw std::runtime_error(path + ": " + log.error().message);
  return std::make_shared<core::TelemetryLog>(std::move(log).value());
}

namespace {

double median(const std::vector<double>& v) {
  return adsala::percentile(v, 50);
}

std::vector<std::uint32_t> seeded_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  shuffle(order, seed);
  return order;
}

/// Cold selection (a key's first occurrence on a fresh memo), its replayed
/// split into features / transform / predict, and warm selection.
void selection(const Probes& ctx) {
  AdsalaGemm& rt = ctx.runtime;
  const auto order = seeded_order(ctx.keys.size(), mix(ctx.options.seed, 300));
  const std::size_t want = ctx.options.smoke ? 32 : 1024;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(ctx.options.seconds / 10 * 1e9);
  std::vector<double> cold, features, transform, predict;
  for (std::size_t n = 0; n < want && (n < 2 || now_ns() < deadline);) {
    rt.install(rt.snapshot());  // a fresh memo: every key below misses
    for (std::size_t i = 0; i < order.size() && n < want; ++i, ++n) {
      // Both run on every key, and their argmins must agree; only the one
      // that runs first is timed (alternately), as the second finds the
      // model's paths for this shape already in cache.
      const Key& key = ctx.keys[order[i]];
      int p = 0;
      ReplaySplit split;
      if (n % 2 == 0) {
        const std::int64_t t0 = now_ns();
        p = rt.select_threads(key.op, key.x, key.y, key.z, key.elem);
        cold.push_back(static_cast<double>(now_ns() - t0));
        split = replay_selection(rt, key);
      } else {
        split = replay_selection(rt, key);
        features.push_back(
            static_cast<double>(split.features_end - split.start));
        transform.push_back(
            static_cast<double>(split.transform_end - split.features_end));
        predict.push_back(
            static_cast<double>(split.end - split.transform_end));
        p = rt.select_threads(key.op, key.x, key.y, key.z, key.elem);
      }
      const int replay =
          ctx.tracer.add("select.replay", split.start, split.end);
      ctx.tracer.add("features", split.start, split.features_end, replay);
      ctx.tracer.add("transform", split.features_end, split.transform_end,
                    replay);
      ctx.tracer.add("predict", split.transform_end, split.end, replay);
      if (split.threads != p) {
        ctx.result.fail(key_name(key) + ": replayed argmin " +
                       std::to_string(split.threads) +
                       " != select_threads " + std::to_string(p));
      }
    }
  }
  const double cold_ns = median(cold);
  const double f = median(features);
  const double t = median(transform);
  const double p = median(predict);
  ctx.result.set("core.select_cold_us", cold_ns * 1e-3, "us");
  ctx.result.set("preprocess.features_ns", f, "ns");
  ctx.result.set("preprocess.transform_ns", t, "ns");
  ctx.result.set("ml.predict_ns", p, "ns");
  ctx.result.set("core.select_self_ns", cold_ns - f - t - p, "ns");

  // Warm: one key repeated, timed in batches of 1024 memo hits (calls into
  // the library, which the compiler cannot drop).
  std::vector<double> warm;
  for (std::size_t i = 0; i < std::min<std::size_t>(64, order.size()); ++i) {
    const Key& key = ctx.keys[order[i]];
    (void)rt.select_threads(key.op, key.x, key.y, key.z, key.elem);
    const std::int64_t t0 = now_ns();
    for (int j = 0; j < 1024; ++j) {
      (void)rt.select_threads(key.op, key.x, key.y, key.z, key.elem);
    }
    warm.push_back(static_cast<double>(now_ns() - t0) / 1024.0);
  }
  ctx.result.set("core.select_warm_ns", median(warm), "ns");
}

/// Every distinct key of a seeded subsample timed at every thread count of
/// the model's grid: the regret of the chosen count against the best one,
/// and the BLAS routines' parallel efficiency at p = max.
void sweep(const Probes& ctx) {
  AdsalaGemm& rt = ctx.runtime;
  const std::vector<int> grid = rt.thread_grid();
  const auto order = seeded_order(ctx.keys.size(), mix(ctx.options.seed, 301));
  const std::size_t cap = ctx.options.smoke ? 4 : 256;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(ctx.options.seconds / 6 * 1e9);
  double chosen_s = 0.0, best_s = 0.0, one_s = 0.0, max_s = 0.0;
  std::size_t agree = 0, swept = 0;
  for (std::uint32_t idx : order) {
    if (swept == cap || (swept > 0 && now_ns() >= deadline)) break;
    const Key& key = ctx.keys[idx];
    std::vector<double> t(grid.size());
    for (std::size_t g = 0; g < grid.size(); ++g) {
      // Best of 3 (of 9 below 100 us, where one hiccup is a large share).
      for (int rep = 0, reps = 3; rep < reps; ++rep) {
        ctx.operands.prepare(key, Out::kPmax);
        const std::int64_t t0 = now_ns();
        ctx.operands.fixed(key, grid[g], Out::kPmax);
        const double s = static_cast<double>(now_ns() - t0) * 1e-9;
        if (rep == 0 && s < 100e-6) reps = 9;
        t[g] = rep == 0 ? s : std::min(t[g], s);
      }
    }
    const int p = rt.select_threads(key.op, key.x, key.y, key.z, key.elem);
    const auto chosen = static_cast<std::size_t>(
        std::find(grid.begin(), grid.end(), p) - grid.begin());
    const auto best = static_cast<std::size_t>(
        std::min_element(t.begin(), t.end()) - t.begin());
    if (chosen == grid.size()) {
      ctx.result.fail(key_name(key) + ": selected " + std::to_string(p) +
                     " threads, outside the model's grid");
      continue;
    }
    chosen_s += t[chosen];
    best_s += t[best];
    one_s += t.front();
    max_s += t.back();
    agree += chosen == best ? 1 : 0;
    ++swept;
  }
  ctx.result.set("core.regret", chosen_s / best_s - 1.0, "ratio");
  ctx.result.set("core.oracle_agree_frac",
                static_cast<double>(agree) / static_cast<double>(swept),
                "ratio");
  ctx.result.set("blas.scaling_eff",
                one_s / (static_cast<double>(grid.back()) * max_s), "ratio");
}

/// An empty parallel region at p = max: the pool's fork/join cost.
void fork_join(const Probes& ctx) {
  auto& pool = adsala::ThreadPool::global();
  const std::function<void(std::size_t, std::size_t)> nothing =
      [](std::size_t, std::size_t) {};
  std::vector<double> ns;
  for (int i = 0; i < (ctx.options.smoke ? 200 : 2000); ++i) {
    const std::int64_t t0 = now_ns();
    pool.parallel_region(pool.max_threads(), nothing);
    ns.push_back(static_cast<double>(now_ns() - t0));
  }
  ctx.result.set("common.fork_join_us", median(ns) * 1e-3, "us");
}

/// The serve-time sampler on (1-in-64, into `log`) against off, on the
/// memo-hit path it must fit beside: blocks of select + gate (+ record on a
/// firing tick), alternating.
void sampling(const Probes& ctx,
              const std::shared_ptr<core::TelemetryLog>& log) {
  AdsalaGemm& rt = ctx.runtime;
  const Key& key = ctx.keys.front();
  const long n = ctx.options.smoke ? 20000 : 200000;
  auto block = [&] {
    const std::int64_t t0 = now_ns();
    for (long i = 0; i < n; ++i) {
      const int p = rt.select_threads(key.op, key.x, key.y, key.z, key.elem);
      if (rt.sample_tick()) {
        rt.record_sample(key.op, key.x, key.y, key.z, key.elem, p, 1000);
      }
    }
    return static_cast<double>(now_ns() - t0) / static_cast<double>(n);
  };
  std::vector<double> on, off;
  for (int b = 0; b < 6; ++b) {
    for (int side = 0; side < 2; ++side) {
      if ((side == 0) == (b % 2 == 0)) {
        rt.enable_sampling(log, 64);
        on.push_back(block());
      } else {
        rt.disable_sampling();
        off.push_back(block());
      }
    }
  }
  rt.disable_sampling();
  ctx.result.set("core.sampling_overhead_pct",
                (median(on) / median(off) - 1.0) * 100.0, "%");
  const adsala::Error flushed = log->flush();
  auto records = core::read_telemetry_log(log->path());
  if (!flushed.ok() || !records.ok()) {
    ctx.result.fail("telemetry log " + log->path() + " unreadable");
    return;
  }
  ctx.result.set("core.samples_logged",
                static_cast<double>(records.value().size()), "count");
}

/// Publishing the trained artefacts to a shm region and attaching to it.
void shm(const Probes& ctx, const Served& served) {
  const std::string model = read_file(served.model_path);
  const std::string config = read_file(served.config_path);
  std::vector<double> publish, attach;
  for (int i = 0; i < 5; ++i) {
    std::int64_t t0 = now_ns();
    const adsala::Error err =
        core::publish_shm_region("probe.region", model, config);
    publish.push_back(static_cast<double>(now_ns() - t0));
    t0 = now_ns();
    const bool attached = AdsalaGemm::try_attach("probe.region").ok();
    attach.push_back(static_cast<double>(now_ns() - t0));
    if (!err.ok() || !attached) ctx.result.fail("shm publish/attach failed");
  }
  ctx.result.set("shm.publish_ms", median(publish) * 1e-6, "ms");
  ctx.result.set("shm.attach_ms", median(attach) * 1e-6, "ms");
}

/// One client against an otherwise idle daemon: a warm key's round trip,
/// and a cold key's (a fresh memo, so the daemon runs the full argmin).
void daemon_round_trip(const Probes& ctx) {
  AdsalaGemm& rt = ctx.runtime;
  Daemon daemon(rt, "probe.sock");
  auto round_trip = [&](const Key& key) {
    const std::int64_t t0 = now_ns();
    const auto ack =
        adsala::daemon::query(daemon.socket(), to_request(key), 2000);
    const double ns = static_cast<double>(now_ns() - t0);
    if (!ack.ok() || ack.value().status != adsala::ErrorCode::kOk) {
      ctx.result.fail(key_name(key) + ": probe daemon query failed");
    }
    return ns;
  };
  const std::size_t n = ctx.options.smoke ? 20 : 200;
  std::vector<double> warm, cold;
  (void)round_trip(ctx.keys.front());
  while (warm.size() < n) warm.push_back(round_trip(ctx.keys.front()));
  const auto order = seeded_order(ctx.keys.size(), mix(ctx.options.seed, 302));
  while (cold.size() < n) {
    rt.install(rt.snapshot());
    for (std::size_t i = 0; i < order.size() && cold.size() < n; ++i) {
      cold.push_back(round_trip(ctx.keys[order[i]]));
    }
  }
  ctx.result.set("daemon.round_trip_us", median(warm) * 1e-3, "us");
  ctx.result.set("daemon.cold_round_trip_us", median(cold) * 1e-3, "us");
}

}  // namespace

void run_probes(const Probes& probes, const Served& served,
                const std::shared_ptr<core::TelemetryLog>& log) {
  selection(probes);
  sweep(probes);
  fork_join(probes);
  sampling(probes, log);
  shm(probes, served);
  daemon_round_trip(probes);
  probes.result.set("core.train_s", served.train_s, "s");
  probes.result.set("core.load_ms", served.load_ms, "ms");
}

}  // namespace e2e
