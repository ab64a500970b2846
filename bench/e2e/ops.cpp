// Call keys, trace sampling and operand storage: how the benchmark makes
// one level-3 call through the ADSALA path, at a fixed thread count, or
// through the reference implementation, and how it compares the outputs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <stdexcept>
#include <type_traits>

#include "blas/gemm.h"
#include "blas/symm.h"
#include "blas/syrk.h"
#include "blas/trmm.h"
#include "blas/trsm.h"
#include "common/rng.h"
#include "core/op_registry.h"
#include "sampling/halton.h"
#include "e2e.h"

namespace e2e {

namespace blas = adsala::blas;

namespace {

/// Element counts of one key: A, B (read from the pool) and the output.
struct Extent {
  std::size_t a = 0;
  std::size_t b = 0;
  std::size_t out = 0;
};

Extent extent(const Key& key) {
  const auto x = static_cast<std::size_t>(key.x);
  const auto y = static_cast<std::size_t>(key.y);
  const auto z = static_cast<std::size_t>(key.z);
  switch (key.op) {
    case OpKind::kGemm:  // (m, k, n)
      return {x * y, y * z, x * z};
    case OpKind::kSyrk:  // (n, k): A n x k, C n x n
      return {x * y, 0, x * x};
    case OpKind::kTrsm:  // (n, m): A n x n, B n x m (in place for TRSM/TRMM)
    case OpKind::kSymm:
    case OpKind::kTrmm:
      return {x * x, x * y, x * y};
  }
  return {};
}

}  // namespace

double key_flops(const Key& key) {
  const auto x = static_cast<double>(key.x);
  const auto y = static_cast<double>(key.y);
  switch (key.op) {
    case OpKind::kGemm:
      return blas::gemm_flops(x, y, static_cast<double>(key.z));
    case OpKind::kSyrk: return blas::syrk_flops(x, y);
    case OpKind::kTrsm: return blas::trsm_flops(x, y);
    case OpKind::kSymm: return blas::symm_flops(x, y);
    case OpKind::kTrmm: return blas::trmm_flops(x, y);
  }
  return 0.0;
}

std::string key_name(const Key& key) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s/f%d/%ldx%ld", blas::op_name(key.op),
                key.elem * 8, key.x, key.y);
  std::string out = buf;
  if (key.op == OpKind::kGemm) out += 'x' + std::to_string(key.z);
  return out;
}

adsala::daemon::Request to_request(const Key& key) {
  adsala::daemon::Request req;
  req.op_code = static_cast<std::uint8_t>(blas::op_code(key.op));
  req.elem_bytes = static_cast<std::uint8_t>(key.elem);
  req.x = key.x;
  req.y = key.y;
  req.z = key.z;
  return req;
}

const char* blas_span(OpKind op) {
  static constexpr const char* kNames[] = {"blas.gemm", "blas.syrk",
                                           "blas.trsm", "blas.symm",
                                           "blas.trmm"};
  static_assert(std::size(kNames) == blas::kNumOps);
  return kNames[blas::op_code(op)];
}

double key_volume(const Key& key) {
  const auto s =
      adsala::core::op_traits(key.op).to_shape(key.x, key.y, key.z, key.elem);
  return static_cast<double>(s.m) * static_cast<double>(s.k) *
         static_cast<double>(s.n);
}

std::vector<Key> sample_keys(std::size_t count, std::size_t cap_bytes,
                             long dim_max, std::uint64_t stream,
                             std::uint64_t seed) {
  // Up to this share of the unit cube, per dimension, the seed shifts the
  // stream's point set by.
  constexpr double kJitter = 0.01;
  std::vector<std::vector<Key>> families;
  for (const OpKind op : blas::all_ops()) {
    for (const int elem : {4, 8}) {
      const std::uint64_t family =
          mix(stream, static_cast<std::uint64_t>(blas::op_code(op)) * 16 +
                          static_cast<std::uint64_t>(elem));
      adsala::sampling::DomainConfig cfg;
      cfg.memory_cap_bytes = cap_bytes;
      cfg.dim_max = dim_max;
      cfg.elem_bytes = elem;
      cfg.seed = family;
      const auto& traits = adsala::core::op_traits(op);
      const auto sampler = traits.make_sampler(cfg);
      const auto dims = static_cast<std::size_t>(traits.family_dims);
      adsala::sampling::ScrambledHalton halton(
          {cfg.bases.begin(), cfg.bases.begin() + dims}, family);
      // A fixed Cranley-Patterson rotation (as the library's samplers apply;
      // it keeps points off the degenerate near-zero diagonals) plus the
      // seed's small shift.
      adsala::Rng fixed(family ^ 0xc0ffee);
      adsala::Rng jitter(mix(seed, family));
      std::vector<double> shift(dims);
      for (double& s : shift) s = fixed.uniform() + kJitter * jitter.uniform();
      std::vector<Key> keys;
      for (std::size_t attempt = 0; keys.size() < count; ++attempt) {
        if (attempt > count * 10000 + 100000) {
          throw std::runtime_error("sample_keys: domain too tight");
        }
        std::vector<double> u = halton.next();
        for (std::size_t d = 0; d < dims; ++d) {
          u[d] = std::fmod(u[d] + shift[d], 1.0);
        }
        const auto shape = sampler->map_point(u);
        if (!sampler->in_domain(shape)) continue;
        Key key{op, elem, 0, 0, 0};
        traits.from_shape(shape, &key.x, &key.y, &key.z);
        keys.push_back(key);
      }
      families.push_back(std::move(keys));
    }
  }
  std::vector<Key> out;
  std::set<Key> seen;
  for (std::size_t i = 0; i < count; ++i) {
    for (const auto& family : families) {
      if (seen.insert(family[i]).second) out.push_back(family[i]);
    }
  }
  return out;
}

Operands::Operands(const std::vector<Key>& keys, std::uint64_t seed) {
  Extent need[2];
  for (const Key& key : keys) {
    const Extent e = extent(key);
    Extent& n = need[key.elem == 4 ? 0 : 1];
    n.a = std::max(n.a, e.a + e.b);
    n.out = std::max(n.out, e.out);
  }
  auto fill = [&](auto& p, const Extent& n, std::uint64_t salt) {
    using T = std::remove_reference_t<decltype(p.in[0])>;
    p.in = adsala::AlignedBuffer<T>(n.a);
    adsala::Rng rng(mix(seed, salt));
    for (std::size_t i = 0; i < n.a; ++i) {
      p.in[i] = static_cast<T>(rng.uniform(-1.0, 1.0));
    }
    // Zero-filled up front, so no timed call pays a first-touch page fault.
    for (auto& o : p.out) {
      o = adsala::AlignedBuffer<T>(n.out);
      if (n.out > 0) std::memset(o.data(), 0, n.out * sizeof(T));
    }
  };
  fill(f32_, need[0], 4);
  fill(f64_, need[1], 8);
}

template <>
Operands::Pool<float>& Operands::pool<float>() { return f32_; }
template <>
Operands::Pool<double>& Operands::pool<double>() { return f64_; }
template <>
const Operands::Pool<float>& Operands::pool<float>() const { return f32_; }
template <>
const Operands::Pool<double>& Operands::pool<double>() const { return f64_; }

void Operands::prepare(const Key& key, Out out) {
  if (key != patched_) {
    unpatch();
    if (key.op == OpKind::kTrsm) patch(key);
  }
  if (key.op != OpKind::kTrsm && key.op != OpKind::kTrmm) return;
  const Extent e = extent(key);
  auto copy = [&](auto& p) {
    std::memcpy(p.out[static_cast<int>(out)].data(), p.in.data() + e.a,
                e.b * sizeof(p.in[0]));
  };
  if (key.elem == 4) copy(f32_); else copy(f64_);
}

void Operands::patch(const Key& key) {
  const auto n = static_cast<std::size_t>(key.x);
  auto apply = [&](auto& p) {
    using T = std::remove_reference_t<decltype(p.in[0])>;
    saved_diagonal_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      saved_diagonal_[i] = static_cast<double>(p.in[i * n + i]);
      // Off-diagonal entries lie in [-1, 1], so n + 1 dominates every row.
      p.in[i * n + i] = static_cast<T>(n + 1);
    }
  };
  if (key.elem == 4) apply(f32_); else apply(f64_);
  patched_ = key;
}

void Operands::unpatch() {
  if (patched_.op != OpKind::kTrsm) return;
  const auto n = static_cast<std::size_t>(patched_.x);
  auto restore = [&](auto& p) {
    using T = std::remove_reference_t<decltype(p.in[0])>;
    for (std::size_t i = 0; i < n; ++i) {
      p.in[i * n + i] = static_cast<T>(saved_diagonal_[i]);
    }
  };
  if (patched_.elem == 4) restore(f32_); else restore(f64_);
  patched_ = Key{};
}

template <typename T>
void Operands::run(const Key& key, int threads, AdsalaGemm* runtime,
                   Out out) {
  constexpr bool f32 = std::is_same_v<T, float>;
  Pool<T>& p = pool<T>();
  const T* a = p.in.data();
  const T* b = a + extent(key).a;
  T* c = p.out[static_cast<int>(out)].data();
  const int x = static_cast<int>(key.x);
  const int y = static_cast<int>(key.y);
  const int z = static_cast<int>(key.z);
  const auto lo = blas::Uplo::kLower;
  const auto no = blas::Trans::kNo;
  const auto nonunit = blas::Diag::kNonUnit;
  switch (key.op) {
    case OpKind::kGemm:  // C (m x n) = A (m x k) * B (k x n)
      if (runtime == nullptr) {
        blas::gemm<T>(no, no, x, z, y, T(1), a, y, b, z, T(0), c, z, threads);
      } else if constexpr (f32) {
        runtime->sgemm(x, z, y, 1.0f, a, y, b, z, 0.0f, c, z);
      } else {
        runtime->dgemm(x, z, y, 1.0, a, y, b, z, 0.0, c, z);
      }
      return;
    case OpKind::kSyrk:  // C (n x n, lower) = A (n x k) * A^T
      if (runtime == nullptr) {
        blas::syrk<T>(lo, no, x, y, T(1), a, y, T(0), c, x, threads);
      } else if constexpr (f32) {
        runtime->ssyrk(lo, x, y, 1.0f, a, y, 0.0f, c, x);
      } else {
        runtime->dsyrk(lo, x, y, 1.0, a, y, 0.0, c, x);
      }
      return;
    case OpKind::kTrsm:  // B (n x m) <- inv(A) * B, in place in `c`
      if (runtime == nullptr) {
        blas::trsm<T>(lo, no, nonunit, x, y, T(1), a, x, c, y, threads);
      } else if constexpr (f32) {
        runtime->strsm(lo, no, nonunit, x, y, 1.0f, a, x, c, y);
      } else {
        runtime->dtrsm(lo, no, nonunit, x, y, 1.0, a, x, c, y);
      }
      return;
    case OpKind::kSymm:  // C (n x m) = A (n x n, symmetric) * B (n x m)
      if (runtime == nullptr) {
        blas::symm<T>(lo, x, y, T(1), a, x, b, y, T(0), c, y, threads);
      } else if constexpr (f32) {
        runtime->ssymm(lo, x, y, 1.0f, a, x, b, y, 0.0f, c, y);
      } else {
        runtime->dsymm(lo, x, y, 1.0, a, x, b, y, 0.0, c, y);
      }
      return;
    case OpKind::kTrmm:  // B (n x m) <- A * B, in place in `c`
      if (runtime != nullptr) {
        threads = runtime->select_threads(OpKind::kTrmm, x, y, 0,
                                          static_cast<int>(sizeof(T)));
      }
      blas::trmm<T>(lo, no, nonunit, x, y, T(1), a, x, c, y, threads);
      return;
  }
}

void Operands::adsala(AdsalaGemm& runtime, const Key& key, Out out) {
  if (key.elem == 4) run<float>(key, 0, &runtime, out);
  else run<double>(key, 0, &runtime, out);
}

void Operands::fixed(const Key& key, int threads, Out out) {
  if (key.elem == 4) run<float>(key, threads, nullptr, out);
  else run<double>(key, threads, nullptr, out);
}

void Operands::reference(const Key& key) {
  prepare(key, Out::kRef);
  auto ref = [&](auto& p) {
    using T = std::remove_reference_t<decltype(p.in[0])>;
    const T* a = p.in.data();
    const T* b = a + extent(key).a;
    T* c = p.out[static_cast<int>(Out::kRef)].data();
    const int x = static_cast<int>(key.x);
    const int y = static_cast<int>(key.y);
    const int z = static_cast<int>(key.z);
    const auto lo = blas::Uplo::kLower;
    const auto no = blas::Trans::kNo;
    const auto nonunit = blas::Diag::kNonUnit;
    switch (key.op) {
      case OpKind::kGemm:
        blas::reference_gemm<T>(no, no, x, z, y, T(1), a, y, b, z, T(0), c, z);
        return;
      case OpKind::kSyrk:
        blas::reference_syrk<T>(lo, no, x, y, T(1), a, y, T(0), c, x);
        return;
      case OpKind::kTrsm:
        blas::reference_trsm<T>(lo, no, nonunit, x, y, T(1), a, x, c, y);
        return;
      case OpKind::kSymm:
        blas::reference_symm<T>(lo, x, y, T(1), a, x, b, y, T(0), c, y);
        return;
      case OpKind::kTrmm:
        blas::reference_trmm<T>(lo, no, nonunit, x, y, T(1), a, x, c, y);
        return;
    }
  };
  if (key.elem == 4) ref(f32_); else ref(f64_);
}

template <typename T>
double Operands::diff(const Key& key, Out a, Out b) const {
  const T* pa = pool<T>().out[static_cast<int>(a)].data();
  const T* pb = pool<T>().out[static_cast<int>(b)].data();
  const auto rows = static_cast<std::size_t>(key.x);
  const std::size_t cols = extent(key).out / std::max<std::size_t>(rows, 1);
  double err = 0.0;
  double scale = 0.0;
  for (std::size_t i = 0; i < rows; ++i) {
    // SYRK writes only the lower triangle; the rest holds stale values.
    const std::size_t end = key.op == OpKind::kSyrk ? i + 1 : cols;
    for (std::size_t j = 0; j < end; ++j) {
      const double va = static_cast<double>(pa[i * cols + j]);
      const double vb = static_cast<double>(pb[i * cols + j]);
      if (!std::isfinite(va) || !std::isfinite(vb)) return INFINITY;
      err = std::max(err, std::fabs(va - vb));
      scale = std::max(scale, std::fabs(vb));
    }
  }
  return err / std::max(scale, 1e-300);
}

double Operands::difference(const Key& key, Out a, Out b) const {
  return key.elem == 4 ? diff<float>(key, a, b) : diff<double>(key, a, b);
}

}  // namespace e2e
