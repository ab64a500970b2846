#include "sampling/domain.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/rng.h"

namespace adsala::sampling {

namespace {

/// sqrt-scale: uniform in sqrt(dim) space => denser coverage of the small
/// dimensions the paper's motivation targets.
long sqrt_scale(double x, long dim_min, long dim_max) {
  const double lo = std::sqrt(static_cast<double>(dim_min));
  const double hi = std::sqrt(static_cast<double>(dim_max));
  const double s = lo + x * (hi - lo);
  return std::max(dim_min, static_cast<long>(std::llround(s * s)));
}

void check_bounds(const DomainConfig& config, const char* who) {
  if (config.dim_min < 1 || config.dim_max < config.dim_min) {
    throw std::invalid_argument(std::string(who) + ": bad dimension bounds");
  }
}

/// Shared rejection-sampling loop: advance the rotated sequence until
/// `count` in-domain shapes are drawn. The sqrt-scaled cube contains many
/// over-cap points (large in every dimension); guard against a degenerate
/// config where nothing fits by capping the attempts.
template <typename MapFn, typename InDomainFn>
std::vector<simarch::GemmShape> sample_rejection(
    ScrambledHalton& sequence, const std::vector<double>& rotation,
    std::size_t count, const char* who, MapFn&& map_point,
    InDomainFn&& in_domain) {
  std::vector<simarch::GemmShape> out;
  out.reserve(count);
  std::size_t attempts = 0;
  const std::size_t max_attempts = count * 10000 + 100000;
  while (out.size() < count && attempts < max_attempts) {
    ++attempts;
    std::vector<double> u = sequence.next();
    for (std::size_t d = 0; d < u.size(); ++d) {
      u[d] += rotation[d];
      if (u[d] >= 1.0) u[d] -= 1.0;  // torus wrap (Cranley-Patterson)
    }
    const simarch::GemmShape shape = map_point(u);
    if (in_domain(shape)) out.push_back(shape);
  }
  if (out.size() < count) {
    throw std::runtime_error(
        std::string(who) +
        ": rejection sampling failed to fill the request; memory cap too "
        "tight for dim_max");
  }
  return out;
}

/// First two configured Halton bases (defaults 2, 3): shared by every 2-D
/// family sampler.
std::vector<unsigned> first_two_bases(const DomainConfig& config) {
  return {config.bases.size() > 0 ? config.bases[0] : 2u,
          config.bases.size() > 1 ? config.bases[1] : 3u};
}

/// Cranley-Patterson rotation stream; each sampler passes its own salt so a
/// mixed-op campaign with one DomainConfig never times two operations on
/// identical diagonals.
std::vector<double> make_rotation(std::uint64_t seed, std::uint64_t salt,
                                  std::size_t dims) {
  Rng rng(seed ^ salt);
  std::vector<double> rot(dims);
  for (auto& r : rot) r = rng.uniform();
  return rot;
}

}  // namespace

GemmDomainSampler::GemmDomainSampler(DomainConfig config)
    : config_(std::move(config)),
      sequence_(config_.bases, config_.seed) {
  if (config_.bases.size() != 3) {
    throw std::invalid_argument("GemmDomainSampler: need exactly 3 bases");
  }
  check_bounds(config_, "GemmDomainSampler");
  rotation_ = make_rotation(config_.seed, 0x0c5a9d21ull, config_.bases.size());
}

simarch::GemmShape GemmDomainSampler::map_point(
    const std::vector<double>& u) const {
  simarch::GemmShape shape;
  shape.m = sqrt_scale(u[0], config_.dim_min, config_.dim_max);
  shape.k = sqrt_scale(u[1], config_.dim_min, config_.dim_max);
  shape.n = sqrt_scale(u[2], config_.dim_min, config_.dim_max);
  shape.elem_bytes = config_.elem_bytes;
  return shape;
}

bool GemmDomainSampler::in_domain(const simarch::GemmShape& shape) const {
  return shape.bytes() <= static_cast<double>(config_.memory_cap_bytes) &&
         shape.m >= config_.dim_min && shape.m <= config_.dim_max &&
         shape.k >= config_.dim_min && shape.k <= config_.dim_max &&
         shape.n >= config_.dim_min && shape.n <= config_.dim_max;
}

std::vector<simarch::GemmShape> GemmDomainSampler::sample(std::size_t count) {
  return sample_rejection(
      sequence_, rotation_, count, "GemmDomainSampler",
      [this](const std::vector<double>& u) { return map_point(u); },
      [this](const simarch::GemmShape& s) { return in_domain(s); });
}

Family2DSampler::Family2DSampler(const Family2DSpec& spec, DomainConfig config)
    : spec_(spec),
      config_(std::move(config)),
      sequence_(first_two_bases(config_), config_.seed) {
  check_bounds(config_, spec_.who);
  rotation_ = make_rotation(config_.seed, spec_.rotation_salt, 2);
}

simarch::GemmShape Family2DSampler::map_point(
    const std::vector<double>& u) const {
  simarch::GemmShape shape;
  if (spec_.m_equals_n) {
    // m == n convention: coords (n, k), stored (n, k, n).
    shape.n = sqrt_scale(u[0], config_.dim_min, config_.dim_max);
    shape.k = sqrt_scale(u[1], config_.dim_min, config_.dim_max);
    shape.m = shape.n;
  } else {
    // m == k convention: coords (n, m), stored (n, n, m).
    shape.m = sqrt_scale(u[0], config_.dim_min, config_.dim_max);
    shape.n = sqrt_scale(u[1], config_.dim_min, config_.dim_max);
    shape.k = shape.m;
  }
  shape.elem_bytes = config_.elem_bytes;
  return shape;
}

bool Family2DSampler::in_domain(const simarch::GemmShape& shape) const {
  // The two free family coordinates must respect the dimension bounds; the
  // derived third is equal to one of them by the marker convention.
  const long c0 = spec_.m_equals_n ? shape.n : shape.m;
  const long c1 = spec_.m_equals_n ? shape.k : shape.n;
  const bool marker =
      spec_.m_equals_n ? shape.m == shape.n : shape.m == shape.k;
  return marker &&
         spec_.footprint_bytes(shape) <=
             static_cast<double>(config_.memory_cap_bytes) &&
         c0 >= config_.dim_min && c0 <= config_.dim_max &&
         c1 >= config_.dim_min && c1 <= config_.dim_max;
}

std::vector<simarch::GemmShape> Family2DSampler::sample(std::size_t count) {
  return sample_rejection(
      sequence_, rotation_, count, spec_.who,
      [this](const std::vector<double>& u) { return map_point(u); },
      [this](const simarch::GemmShape& s) { return in_domain(s); });
}

}  // namespace adsala::sampling
