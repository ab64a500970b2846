// Memory-capped shape domain samplers for the served operation family.
//
// GemmDomainSampler maps scrambled-Halton points in [0,1)^3 to (m, k, n)
// triples whose aggregate operand footprint elem_bytes*(mk + kn + mn) stays
// under a cap (the paper's 100 MB / 500 MB domains). Coordinates use a
// square-root scale -- u^2 stretched over [1, dim_max] -- matching the
// paper's sqrt-scaled heatmap axes, so slim/skinny shapes are as well
// represented as square ones; points over the cap are rejected and the
// sequence advanced.
//
// Every other operation family is 2-D and shares one declarative
// Family2DSampler under the same cap, bounds, and sqrt scale, so an
// operation-aware gathering campaign probes every operation over the same
// territory (stored-shape conventions in docs/OPERATIONS.md). A Family2DSpec
// gives the stored-shape marker (m == n or m == k), the operation's true
// memory footprint, and a rotation salt that decorrelates the sampler's
// Cranley-Patterson stream from every sibling. The op registry
// (core/op_registry.cpp) owns one spec per operation, so this file names
// none.
#pragma once

#include <cstdint>
#include <vector>

#include "sampling/halton.h"
#include "simarch/machine_model.h"

namespace adsala::sampling {

struct DomainConfig {
  std::size_t memory_cap_bytes = 500ull * 1024 * 1024;
  int elem_bytes = 4;
  long dim_max = 74000;  ///< per-dimension upper bound (paper heatmap extent)
  long dim_min = 1;
  std::vector<unsigned> bases = {2, 3, 4};  ///< paper SS IV-B choice for m,k,n
  std::uint64_t seed = 1234;
};

/// Common interface of every shape-domain sampler; the op registry hands
/// these out so gathering code never names a concrete sampler type.
class DomainSampler {
 public:
  virtual ~DomainSampler() = default;

  /// Draws `count` in-domain shapes (rejection sampling over the sequence).
  virtual std::vector<simarch::GemmShape> sample(std::size_t count) = 0;

  /// Maps one [0,1)^d point to a (possibly out-of-cap) shape; exposed for
  /// tests of the scale mapping.
  virtual simarch::GemmShape map_point(const std::vector<double>& u) const = 0;

  virtual bool in_domain(const simarch::GemmShape& shape) const = 0;

  virtual const DomainConfig& config() const = 0;
};

class GemmDomainSampler : public DomainSampler {
 public:
  explicit GemmDomainSampler(DomainConfig config);

  /// Draws `count` in-domain shapes (rejection sampling over the sequence).
  /// A per-dimension Cranley-Patterson rotation (seeded from the config) is
  /// applied on top of the scrambled sequence: digit scrambling with
  /// pi(0) = 0 cannot break the simultaneous-near-zero alignment of bases
  /// 2 and 4 at power-of-four indices, and without the rotation the sampler
  /// emits degenerate sliver shapes (m = n = 2) the paper's data does not
  /// contain.
  std::vector<simarch::GemmShape> sample(std::size_t count) override;

  simarch::GemmShape map_point(const std::vector<double>& u) const override;

  bool in_domain(const simarch::GemmShape& shape) const override;

  const DomainConfig& config() const override { return config_; }

 private:
  DomainConfig config_;
  ScrambledHalton sequence_;
  std::vector<double> rotation_;  ///< Cranley-Patterson shift per dimension
};

/// Declarative description of one 2-D operation family; the registry row of
/// each 2-D operation provides one.
struct Family2DSpec {
  const char* who = "Family2DSampler";  ///< error-message prefix
  /// Salt of the Cranley-Patterson rotation stream: a mixed campaign with
  /// one DomainConfig must never probe two operations on identical
  /// diagonals, so every family picks a fresh value.
  std::uint64_t rotation_salt = 0;
  /// Stored-shape marker: true for the rank-k convention (coords (n, k),
  /// stored as (n, k, n) with m == n), false for the triangular/symmetric
  /// convention (coords (n, m), stored as (n, n, m) with m == k).
  bool m_equals_n = false;
  /// The operation's true aggregate operand footprint in bytes, evaluated on
  /// the stored equivalent-GEMM shape.
  double (*footprint_bytes)(const simarch::GemmShape& shape) = nullptr;
};

/// One generic sampler serving every 2-D family: maps the first two Halton
/// bases through the sqrt scale, applies the spec's stored-shape convention,
/// and rejects on the spec's footprint.
class Family2DSampler : public DomainSampler {
 public:
  Family2DSampler(const Family2DSpec& spec, DomainConfig config);

  std::vector<simarch::GemmShape> sample(std::size_t count) override;

  /// Maps one [0,1)^2 point to a (possibly out-of-cap) shape carrying the
  /// family's marker convention.
  simarch::GemmShape map_point(const std::vector<double>& u) const override;

  /// In-domain test on the family's true footprint.
  bool in_domain(const simarch::GemmShape& shape) const override;

  const DomainConfig& config() const override { return config_; }

 private:
  Family2DSpec spec_;
  DomainConfig config_;
  ScrambledHalton sequence_;
  std::vector<double> rotation_;
};

}  // namespace adsala::sampling
