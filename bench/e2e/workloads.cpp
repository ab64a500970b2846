// The four workloads. README.md beside this file gives the reason for each
// and what every metric means; in short:
//   paper_mix     the paper's regime, medium shapes repeated: blas-bound
//   small_stream  small distinct shapes: cold-selection-bound
//   hot_repeat    a batch-1 ResNet stack, sampling on: per-call overheads
//   serve_daemon  Zipf queries against the daemon: the service plane
// Every workload reports the same end-to-end metrics from an untraced run;
// a traced run makes the same operations with spans and adds the probes.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <thread>

#include "common/stats.h"
#include "common/thread_pool.h"
#include "e2e.h"

namespace e2e {

namespace {

constexpr std::size_t kSmallCap = 256u * 1024;  // small_stream's domain
constexpr long kSmallDims = 256;
constexpr std::size_t kMediumCap = 16u * 1024 * 1024;  // paper_mix's domain
constexpr long kMediumDims = 16000;

int pmax() {
  return static_cast<int>(adsala::ThreadPool::global().max_threads());
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

std::int64_t deadline_after(double seconds) {
  return now_ns() + static_cast<std::int64_t>(seconds * 1e9);
}

template <typename Fn>
double timed(Fn&& fn) {
  const std::int64_t t0 = now_ns();
  fn();
  return static_cast<double>(now_ns() - t0);
}

/// The decision memo of a runtime right after loading: a new generation of
/// the same snapshot (AdsalaGemm::install starts it with an empty memo).
void fresh_memo(AdsalaGemm& runtime) { runtime.install(runtime.snapshot()); }

/// Seeded call trace: distinct keys and the order they are called in.
struct CallTrace {
  std::vector<Key> keys;
  std::vector<std::uint32_t> calls;
};

/// Both sides' times of each operation a measured loop ran, in nanoseconds.
struct Log {
  std::vector<double> adsala_ns;
  std::vector<double> pmax_ns;
};

/// The correctness gate: the first occurrence of each key compares the
/// ADSALA-path output with the p = max output, and a seeded 1-in-64
/// subsample of small keys also with the reference implementation.
class Gate {
 public:
  Gate(std::size_t keys, std::uint64_t seed)
      : seen_(keys, false), seed_(seed) {}

  bool first(std::uint32_t idx) const { return !seen_[idx]; }

  void check(std::uint32_t idx, const Key& key, Operands& ops, Result& r) {
    seen_[idx] = true;
    const double d = ops.difference(key, Out::kAdsala, Out::kPmax);
    if (!(d <= tolerance(key))) {
      r.fail(key_name(key) + ": ADSALA path and p=max differ by " +
             std::to_string(d));
    }
    if (mix(seed_, idx) % 64 == 0 && key_volume(key) <= double(1 << 24)) {
      ops.reference(key);
      const double e = ops.difference(key, Out::kAdsala, Out::kRef);
      if (!(e <= tolerance(key))) {
        r.fail(key_name(key) + ": ADSALA path and reference differ by " +
               std::to_string(e));
      }
    }
  }

 private:
  std::vector<bool> seen_;
  std::uint64_t seed_;
};

/// One in-process ADSALA-path call through the layers' public functions,
/// with spans: call -> select (select_threads plus the sampling gate the
/// wrappers run) and blas.<op> (the routine at the selected count). Returns
/// the call's duration in nanoseconds.
double traced_call(AdsalaGemm& rt, Operands& ops, const Key& key, Tracer& tr,
                   int parent) {
  const std::int64_t t0 = now_ns();
  const int p = rt.select_threads(key.op, key.x, key.y, key.z, key.elem);
  const bool sampled = key.op != OpKind::kTrmm && rt.sample_tick();
  const std::int64_t t1 = now_ns();
  ops.fixed(key, p, Out::kAdsala);
  const std::int64_t t2 = now_ns();
  if (sampled) {
    rt.record_sample(key.op, key.x, key.y, key.z, key.elem, p,
                     static_cast<std::uint64_t>(t2 - t1));
  }
  const std::int64_t t3 = now_ns();
  const int call = tr.add("call", t0, t3, parent);
  tr.add("select", t0, t1, call);
  tr.add(blas_span(key.op), t1, t2, call);
  return static_cast<double>(t3 - t0);
}

/// The traced run's ADSALA side: one operation made untraced (its time is
/// appended to `untraced_ns`) and traced (its time is returned), in an
/// order that alternates every two operations. Host drift during the run
/// then cancels out of trace.overhead_pct.
template <typename Plain, typename Traced>
double untraced_and_traced(std::vector<double>& untraced_ns, Plain&& plain,
                           Traced&& traced) {
  const bool plain_first = untraced_ns.size() / 2 % 2 == 0;
  double t = 0.0;
  for (int side = 0; side < 2; ++side) {
    if ((side == 0) == plain_first) {
      untraced_ns.push_back(plain());
    } else {
      t = traced();
    }
  }
  return t;
}

/// The measured loop of every workload: operation i = 0, 1, ... once
/// through the ADSALA path and once at p = max, alternating which side goes
/// first, then `check(i)` outside the timers, until `seconds` pass. Each
/// side runs operation i and returns its time.
template <typename Adsala, typename Pmax, typename Check>
Log run_pairs(double seconds, Result& r, Adsala&& adsala_side,
              Pmax&& pmax_side, Check&& check) {
  Log log;
  const std::int64_t deadline = deadline_after(seconds);
  for (std::size_t i = 0; now_ns() < deadline; ++i) {
    double t_adsala = 0.0;
    double t_pmax = 0.0;
    try {
      for (int side = 0; side < 2; ++side) {
        if ((side == 0) == (i % 2 == 0)) {
          t_adsala = adsala_side(i);
        } else {
          t_pmax = pmax_side(i);
        }
      }
      check(i);
    } catch (const std::exception& e) {
      r.fail("operation " + std::to_string(i) + ": " + e.what());
    }
    ++r.attempted;
    log.adsala_ns.push_back(t_adsala);
    log.pmax_ns.push_back(t_pmax);
  }
  return log;
}

/// run_pairs over a call trace's calls in order (cycling), one call per
/// operation: `adsala_side(key)` makes the ADSALA-path call and returns its
/// time, and the gate checks each key's first occurrence.
template <typename Side>
Log run_calls(Operands& ops, const CallTrace& trace, double seconds,
              Gate& gate, Result& r, Side&& adsala_side) {
  const int p_max = pmax();
  auto idx = [&](std::size_t i) { return trace.calls[i % trace.calls.size()]; };
  return run_pairs(
      seconds, r,
      [&](std::size_t i) {
        const Key& key = trace.keys[idx(i)];
        ops.prepare(key, Out::kAdsala);
        return adsala_side(key);
      },
      [&](std::size_t i) {
        const Key& key = trace.keys[idx(i)];
        ops.prepare(key, Out::kPmax);
        return timed([&] { ops.fixed(key, p_max, Out::kPmax); });
      },
      [&](std::size_t i) {
        if (gate.first(idx(i))) gate.check(idx(i), trace.keys[idx(i)], ops, r);
      });
}

/// FLOPs of the first `n` calls of `trace` (cycling).
double trace_flops(const CallTrace& trace, std::size_t n) {
  double flops = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    flops += key_flops(trace.keys[trace.calls[i % trace.calls.size()]]);
  }
  return flops;
}

/// The end-to-end metrics every workload reports (README.md), from one
/// untraced measurement: per-operation ADSALA-path latencies, the paired
/// p = max total, and the operation rate.
void report_end_to_end(Result& r, const Served& s,
                       const std::vector<double>& latency_ns, double speedup,
                       double ops_per_s) {
  r.set("setup_s", s.setup_s, "s");
  r.set("speedup_vs_pmax", speedup, "x");
  r.set("latency_p50_us", adsala::percentile(latency_ns, 50) * 1e-3, "us");
  r.set("latency_p90_us", adsala::percentile(latency_ns, 90) * 1e-3, "us");
  r.set("ops_per_s", ops_per_s, "1/s");
}

/// Per-layer metrics of the traced operations: selection share, BLAS busy
/// time and rate, and the tracing overhead of the top-level spans named
/// `top` against the same operations made untraced (`untraced_ns`).
void report_traced(Result& r, const Tracer& tr, double flops,
                   const std::vector<double>& untraced_ns, const char* top) {
  const double busy = tr.total_s("blas.");
  r.set("core.select_share", tr.total_s("select") / tr.total_s("call"),
        "ratio");
  r.set("blas.busy_s", busy, "s");
  r.set("blas.gflops", flops * 1e-9 / busy, "GFLOP/s");
  r.set("trace.overhead_pct",
        (tr.total_s(top) / (sum(untraced_ns) * 1e-9) - 1.0) * 100.0, "%");
}

/// Exact counts of one pass over the generated trace: equal for equal seeds.
void report_work(Result& r, std::size_t calls, std::size_t keys,
                 double flops) {
  r.set("work.calls", static_cast<double>(calls), "count");
  r.set("work.distinct_keys", static_cast<double>(keys), "count");
  r.set("work.gflop", flops * 1e-9, "GFLOP");
}

/// paper_mix and small_stream: one trace through run_calls.
Result trace_workload(const Options& o, const std::string& name,
                      const CallTrace& trace) {
  Result r;
  Served s = set_up(o, false);
  r.model_sha256 = s.model_sha256;
  AdsalaGemm& rt = *s.runtime;
  Operands ops(trace.keys, mix(o.seed, 3));
  Gate gate(trace.keys.size(), o.seed);
  auto untraced = [&](const Key& key) {
    return timed([&] { ops.adsala(rt, key, Out::kAdsala); });
  };

  fresh_memo(rt);
  if (!o.trace) {
    const Log log = run_calls(ops, trace, o.seconds, gate, r, untraced);
    report_end_to_end(r, s, log.adsala_ns,
                      sum(log.pmax_ns) / sum(log.adsala_ns),
                      static_cast<double>(log.adsala_ns.size()) /
                          (sum(log.adsala_ns) * 1e-9));
    return r;
  }

  // Each call is made untraced through `rt` and traced through a second
  // runtime on the same artefacts. Both memos start empty and see the same
  // calls, so each call finds the same memo state on both.
  auto second = AdsalaGemm::try_load(s.model_path, s.config_path);
  if (!second.ok()) {
    throw std::runtime_error("try_load: " + second.error().message);
  }
  AdsalaGemm traced_rt = std::move(second).value();
  Tracer tr;
  std::vector<double> untraced_ns;
  const Log log = run_calls(
      ops, trace, o.seconds / 2, gate, r, [&](const Key& key) {
        return untraced_and_traced(
            untraced_ns,
            [&] {
              ops.prepare(key, Out::kAdsala);
              return untraced(key);
            },
            [&] {
              ops.prepare(key, Out::kAdsala);
              return traced_call(traced_rt, ops, key, tr, -1);
            });
      });
  report_traced(r, tr, trace_flops(trace, log.adsala_ns.size()), untraced_ns,
                "call");
  report_work(r, trace.calls.size(), trace.keys.size(),
              trace_flops(trace, trace.calls.size()));
  run_probes({o, rt, ops, trace.keys, r, tr}, s,
             open_log("telemetry_" + name + ".bin"));
  tr.write("trace_" + name + ".json", name);
  return r;
}

}  // namespace

Result paper_mix(const Options& o) {
  // Each distinct shape is called 8x, in rounds that each call every shape
  // once in a fresh shuffled order (an application loop): any prefix of the
  // trace covers the Halton shape set evenly.
  CallTrace trace;
  trace.keys = sample_keys(o.scaled(32), kMediumCap, kMediumDims, 1, o.seed);
  std::vector<std::uint32_t> round(trace.keys.size());
  std::iota(round.begin(), round.end(), 0u);
  for (int i = 0; i < 8; ++i) {
    shuffle(round, mix(o.seed, 100 + i));
    trace.calls.insert(trace.calls.end(), round.begin(), round.end());
  }
  return trace_workload(o, "paper_mix", trace);
}

Result small_stream(const Options& o) {
  // Every call a new shape, in Halton order interleaved over the ten
  // (op, precision) families: the 256-slot memo never sees a repeat.
  CallTrace trace;
  trace.keys = sample_keys(o.scaled(6000), kSmallCap, kSmallDims, 2, o.seed);
  trace.calls.resize(trace.keys.size());
  std::iota(trace.calls.begin(), trace.calls.end(), 0u);
  return trace_workload(o, "small_stream", trace);
}

Result hot_repeat(const Options& o) {
  // examples/dnn_inference.cpp's batch-1 ResNet stack, im2col-lowered
  // (filters x patch x spatial), through AdsalaGemm::sgemm.
  const std::vector<Key> layers = {
      {OpKind::kGemm, 4, 64, 147, 12544},  {OpKind::kGemm, 4, 64, 64, 3136},
      {OpKind::kGemm, 4, 64, 576, 3136},   {OpKind::kGemm, 4, 128, 128, 784},
      {OpKind::kGemm, 4, 128, 1152, 784},  {OpKind::kGemm, 4, 256, 2304, 196},
      {OpKind::kGemm, 4, 512, 4608, 49},   {OpKind::kGemm, 4, 1000, 2048, 1},
  };
  Result r;
  Served s = set_up(o, false);
  r.model_sha256 = s.model_sha256;
  AdsalaGemm& rt = *s.runtime;
  Operands ops(layers, mix(o.seed, 3));
  const auto log = open_log("telemetry_hot_repeat.bin");
  rt.enable_sampling(log, 64);
  const int p_max = pmax();

  // An untimed first pass: each layer's first occurrence is checked.
  Gate gate(layers.size(), o.seed);
  for (std::uint32_t i = 0; i < layers.size(); ++i) {
    try {
      ops.adsala(rt, layers[i], Out::kAdsala);
      ops.fixed(layers[i], p_max, Out::kPmax);
      gate.check(i, layers[i], ops, r);
    } catch (const std::exception& e) {
      r.fail(key_name(layers[i]) + ": " + e.what());
    }
    ++r.attempted;
  }

  // One operation is one forward pass.
  auto pmax_pass = [&](std::size_t) {
    return timed([&] {
      for (const Key& key : layers) ops.fixed(key, p_max, Out::kPmax);
    });
  };
  auto adsala_pass = [&] {
    return timed([&] {
      for (const Key& key : layers) ops.adsala(rt, key, Out::kAdsala);
    });
  };
  auto no_check = [](std::size_t) {};
  if (!o.trace) {
    const Log measured = run_pairs(
        o.seconds, r, [&](std::size_t) { return adsala_pass(); }, pmax_pass,
        no_check);
    report_end_to_end(r, s, measured.adsala_ns,
                      sum(measured.pmax_ns) / sum(measured.adsala_ns),
                      static_cast<double>(measured.adsala_ns.size()) /
                          (sum(measured.adsala_ns) * 1e-9));
    return r;
  }

  // Each pass is made untraced and traced; every call is a memo hit, so
  // both can go through `rt`.
  Tracer tr;
  std::vector<double> untraced_ns;
  const Log measured = run_pairs(
      o.seconds / 2, r,
      [&](std::size_t) {
        return untraced_and_traced(untraced_ns, adsala_pass, [&] {
          const int pass = tr.begin("pass");
          for (const Key& key : layers) traced_call(rt, ops, key, tr, pass);
          return static_cast<double>(tr.end(pass));
        });
      },
      pmax_pass, no_check);
  double pass_flops = 0.0;
  for (const Key& key : layers) pass_flops += key_flops(key);
  report_traced(r, tr,
                pass_flops * static_cast<double>(measured.adsala_ns.size()),
                untraced_ns, "pass");
  report_work(r, layers.size(), layers.size(), pass_flops);
  (void)log->flush();
  run_probes({o, rt, ops, layers, r, tr}, s, log);
  tr.write("trace_hot_repeat.json", "hot_repeat");
  return r;
}

namespace {

/// Zipf(s) over `n` ranks, each rank mapped to a key by the permutation
/// `order` picks.
class Zipf {
 public:
  Zipf(std::size_t n, double s, std::uint64_t order) : rank_to_key_(n) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += std::pow(static_cast<double>(i + 1), -s);
      cdf_.push_back(acc);
    }
    std::iota(rank_to_key_.begin(), rank_to_key_.end(), 0u);
    shuffle(rank_to_key_, order);
  }

  std::uint32_t draw(adsala::Rng& rng) const {
    const double u = rng.uniform() * cdf_.back();
    const auto rank = std::min<std::size_t>(
        static_cast<std::size_t>(
            std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin()),
        cdf_.size() - 1);
    return rank_to_key_[rank];
  }

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> rank_to_key_;
};

/// One closed-loop daemon client's record.
struct Client {
  std::uint64_t attempted = 0;
  std::vector<double> ns;  ///< untraced queries
  std::uint64_t failed = 0;
  std::string first_failure;
  Tracer tracer;  ///< traced queries
};

constexpr int kClients = 2;

/// kClients closed-loop clients, each querying `socket` for the next key of
/// its own Zipf stream until `seconds` pass. With a `traced_socket`, each
/// key also goes there, with a `query` span, alternating every two keys
/// which daemon is asked first: both daemons serve runtimes on the same
/// artefacts and see the same keys, so host drift cancels out of
/// trace.overhead_pct. Every ack must carry the thread count the in-process
/// runtime chose for that key (`expected`).
std::vector<Client> query_phase(const std::string& socket,
                                const std::string* traced_socket,
                                const std::vector<Key>& keys,
                                const std::vector<int>& expected,
                                const Zipf& zipf, std::uint64_t seed,
                                double seconds) {
  std::vector<Client> clients(kClients);
  const std::int64_t deadline = deadline_after(seconds);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client& me = clients[static_cast<std::size_t>(c)];
      adsala::Rng rng(mix(seed, 200 + static_cast<std::uint64_t>(c)));
      auto ask = [&](const std::string& to, std::uint32_t idx, bool traced) {
        const int span = traced ? me.tracer.begin("query") : -1;
        const std::int64_t t0 = now_ns();
        const auto ack = adsala::daemon::query(to, to_request(keys[idx]), 2000);
        const std::int64_t t1 = now_ns();
        if (traced) {
          me.tracer.end(span);
        } else {
          me.ns.push_back(static_cast<double>(t1 - t0));
        }
        ++me.attempted;
        std::string why;
        if (!ack.ok()) {
          why = ack.error().message;
        } else if (ack.value().status != adsala::ErrorCode::kOk) {
          why = std::string("ack status ") +
                adsala::error_code_name(ack.value().status);
        } else if (static_cast<int>(ack.value().threads) != expected[idx]) {
          why = "ack threads " + std::to_string(ack.value().threads) +
                " != in-process " + std::to_string(expected[idx]);
        }
        if (!why.empty() && me.failed++ == 0) {
          me.first_failure = key_name(keys[idx]) + ": " + why;
        }
      };
      try {
        for (std::size_t i = 0; now_ns() < deadline; ++i) {
          const std::uint32_t idx = zipf.draw(rng);
          if (traced_socket == nullptr) {
            ask(socket, idx, false);
          } else if (i / 2 % 2 == 0) {
            ask(socket, idx, false);
            ask(*traced_socket, idx, true);
          } else {
            ask(*traced_socket, idx, true);
            ask(socket, idx, false);
          }
        }
      } catch (const std::exception& e) {
        // Joined below; the failure is reported, never lost in the thread.
        if (me.failed++ == 0) me.first_failure = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  return clients;
}

}  // namespace

Result serve_daemon(const Options& o) {
  Result r;
  Served s = set_up(o, true);
  r.model_sha256 = s.model_sha256;
  AdsalaGemm& rt = *s.runtime;
  const std::string& socket = s.daemon->socket();

  // 4096 (op, shape, precision) keys, half from each domain above.
  const std::size_t half = o.scaled(2048);
  std::vector<Key> keys;
  std::set<Key> seen;
  for (const auto& [cap, dims, salt] :
       {std::tuple{kSmallCap, kSmallDims, 4},
        std::tuple{kMediumCap, kMediumDims, 5}}) {
    const auto drawn = sample_keys(half / 10 + 30, cap, dims, salt, o.seed);
    std::size_t taken = 0;
    for (const Key& key : drawn) {
      if (taken == half) break;
      if (seen.insert(key).second) {
        keys.push_back(key);
        ++taken;
      }
    }
  }
  // What the daemon must answer: an independent in-process runtime on the
  // same published artefacts.
  auto attached = AdsalaGemm::try_attach("artefacts/region");
  if (!attached.ok()) throw std::runtime_error(attached.error().message);
  AdsalaGemm local = std::move(attached).value();
  std::vector<int> expected;
  for (const Key& key : keys) {
    expected.push_back(
        local.select_threads(key.op, key.x, key.y, key.z, key.elem));
  }
  // Which keys are hot is part of the workload, not of the seed (the seed
  // jitters the shapes and the clients' draws).
  const Zipf zipf(keys.size(), 1.1, 6);

  // Counts the clients' queries and failures; returns their untraced times.
  auto count = [&r](const std::vector<Client>& clients) {
    std::vector<double> ns;
    for (const Client& c : clients) {
      r.attempted += c.attempted;
      if (c.failed > 0) {
        r.failed += c.failed - 1;
        r.fail(c.first_failure);
      }
      ns.insert(ns.end(), c.ns.begin(), c.ns.end());
    }
    return ns;
  };

  // The speedup a daemon client sees: a query, then the call at the
  // answered thread count, against the call at p = max; over 64 keys evenly
  // strided through the key set (both domains, every family).
  CallTrace blas_trace;
  const std::size_t n_calls = std::min<std::size_t>(64, keys.size());
  for (std::size_t i = 0; i < n_calls; ++i) {
    blas_trace.keys.push_back(keys[i * keys.size() / n_calls]);
    blas_trace.calls.push_back(static_cast<std::uint32_t>(i));
  }
  Operands ops(blas_trace.keys, mix(o.seed, 3));
  Gate gate(blas_trace.keys.size(), o.seed);
  auto client_call = [&](const Key& key, Tracer* tr) {
    const std::int64_t t0 = now_ns();
    const auto ack = adsala::daemon::query(socket, to_request(key), 2000);
    const std::int64_t t1 = now_ns();
    int p = pmax();
    if (!ack.ok() || ack.value().status != adsala::ErrorCode::kOk) {
      r.fail(key_name(key) + ": daemon query failed");
    } else {
      p = static_cast<int>(ack.value().threads);
    }
    ops.fixed(key, p, Out::kAdsala);
    const std::int64_t t2 = now_ns();
    if (tr != nullptr) {
      // For a daemon client, selection is the round trip.
      const int call = tr->add("call", t0, t2);
      tr->add("select", t0, t1, call);
      tr->add(blas_span(key.op), t1, t2, call);
    }
    return static_cast<double>(t2 - t0);
  };

  fresh_memo(rt);
  if (!o.trace) {
    const std::int64_t t0 = now_ns();
    const auto clients = query_phase(socket, nullptr, keys, expected, zipf,
                                     o.seed, 0.8 * o.seconds);
    const double wall = static_cast<double>(now_ns() - t0) * 1e-9;
    const std::vector<double> latency = count(clients);
    const Log calls = run_calls(ops, blas_trace, 0.2 * o.seconds, gate, r,
                                [&](const Key& key) {
                                  return client_call(key, nullptr);
                                });
    report_end_to_end(r, s, latency, sum(calls.pmax_ns) / sum(calls.adsala_ns),
                      static_cast<double>(latency.size()) / wall);
    return r;
  }

  // The queries go to the daemon on `rt`, untraced, and to a second daemon
  // on `local`, traced. Both memos start empty.
  std::vector<Client> clients;
  {
    const Daemon traced_daemon(local, "traced.sock");
    fresh_memo(local);  // empties what the daemon's start-up query left
    clients = query_phase(socket, &traced_daemon.socket(), keys, expected,
                          zipf, o.seed, o.seconds / 2);
  }
  const std::vector<double> untraced = count(clients);
  Tracer tr;
  for (const Client& c : clients) tr.append(c.tracer);
  const Log calls = run_calls(ops, blas_trace, o.seconds / 6, gate, r,
                              [&](const Key& key) {
                                return client_call(key, &tr);
                              });
  report_traced(r, tr, trace_flops(blas_trace, calls.adsala_ns.size()),
                untraced, "query");
  report_work(r, blas_trace.calls.size(), keys.size(),
              trace_flops(blas_trace, blas_trace.calls.size()));
  // The probes select and sweep over the 64 call keys (their operands).
  run_probes({o, rt, ops, blas_trace.keys, r, tr}, s,
             open_log("telemetry_serve_daemon.bin"));
  tr.write("trace_serve_daemon.json", "serve_daemon");
  return r;
}

}  // namespace e2e
