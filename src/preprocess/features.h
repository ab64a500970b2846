// Feature engineering — THE canonical definition of the ADSALA feature
// schema. Every other component (GatherData::to_dataset, the trainer, the
// runtime query path in AdsalaGemm) references this header instead of
// restating the column list.
//
// == Base schema (paper Table II, 17 columns) =================================
//
//   idx  name              idx  name
//   ---  ----------------  ---  ----------------
//    0   m                  9   m/t
//    1   k                 10   k/t
//    2   n                 11   n/t
//    3   n_threads         12   m*k/t
//    4   m*k               13   m*n/t
//    5   m*n               14   k*n/t
//    6   k*n               15   m*k*n/t
//    7   m*k*n             16   (m*k+k*n+m*n)/t
//    8   m*k+k*n+m*n
//
// Group 1 (0-8) carries the serial-runtime terms, Group 2 (9-16) the
// per-thread parallel terms; the order above is the canonical feature order
// for every dataset in the project.
//
// == Op-aware schema (17 + kNumOps + 2 columns) ===============================
//
// Since the operation-aware gather (PR 2), datasets append one-hot
// categorical columns after the 17 numeric ones — one column per registered
// operation (blas/op.h table order == op code order) plus one per kernel
// variant. With the current five-op registry:
//
//   17  op_gemm          1 when the row timed a GEMM call
//   18  op_syrk          1 when the row timed a SYRK call (m == n equivalent
//                        shape: features 0-16 are computed from (n, k, n))
//   19  op_trsm          1 when the row timed a TRSM call (m == k equivalent
//                        shape (n, n, rhs_cols))
//   20  op_symm          1 when the row timed a SYMM call (same m == k
//                        convention as TRSM)
//   21  op_trmm          1 when the row timed a TRMM call (same m == k
//                        convention as TRSM)
//   22  kernel_generic   1 when the portable micro-kernel produced the timing
//   23  kernel_avx2      1 when the AVX2+FMA micro-kernel produced it
//   24  kernel_avx512    1 when the AVX-512F micro-kernel produced it
//
// Registering an operation (one blas/op.h row) grows the schema by exactly
// one op_* column; nothing here is edited. Categorical columns are passed
// through the preprocessing pipeline untransformed (no Yeo-Johnson, no
// standardisation; see preprocess::PipelineConfig::categorical) and columns
// that are constant over the training rows are dropped at fit time — a
// GEMM-only campaign therefore reduces to the base behaviour, and a model
// trained without the op columns answers family queries through the
// GEMM-proxy shape exactly as before.
//
// == Backwards compatibility ==================================================
//
// Older artefacts keep loading because the pipeline persists its fitted
// input width (`feature_names` in config.json) and queries are built to
// match it via make_query_features. The kernel one-hot block was 2 wide
// (generic, avx2) until the AVX-512 tier landed and is 3 wide since; the
// width tiers disambiguate because every legacy width predates the 3-wide
// block. Any legacy width 21 <= w < 25 carries w - 19 op one-hot columns
// followed by the 2-wide kernel pair (an avx512-kernel query is proxied as
// its nearest tier, avx2, exactly as an op outside the artefact's op block
// is proxied as a GEMM row — the stored shape already carries the
// equivalent-GEMM dimensions). Concretely:
//   17 columns  PR-1-era base schema — numeric features only, every
//               operation served through the GEMM proxy;
//   21 columns  PR-2-era op-aware schema (gemm/syrk one-hots only) — the
//               triangular families are proxied as GEMM rows;
//   23 columns  PR-3-era four-op schema — TRMM proxied as GEMM;
//   24 columns  PR-4-era five-op schema with the 2-wide kernel block —
//               avx512 rows proxied as avx2;
//   25 columns  current schema: five ops + 3-wide kernel block.
#pragma once

#include <array>
#include <span>
#include <string>
#include <vector>

#include "blas/kernels/kernel_set.h"
#include "blas/op.h"

namespace adsala::preprocess {

/// Number of numeric Table-II features (base schema).
inline constexpr std::size_t kNumFeatures = 17;

/// One-hot kernel-variant columns (generic, avx2, avx512).
inline constexpr std::size_t kNumKernelFeatures = 3;

/// Width of the kernel one-hot block before the AVX-512 tier (generic,
/// avx2); every artefact narrower than kFirstTripleKernelWidth carries this
/// block.
inline constexpr std::size_t kNumLegacyKernelFeatures = 2;

/// The first fitted width that carries the 3-wide kernel block: 17 numeric
/// + the 5 ops registered when the AVX-512 tier shipped + 3. FROZEN
/// HISTORICAL CONSTANT — it must NOT track kNumOps or kNumKernelFeatures:
/// the 2-wide-kernel artefact widths form the closed set {21, 23, 24}
/// (the legacy block era ended at five ops), so "width >= 25 means 3-wide
/// kernel block" stays true no matter how many ops are registered later.
/// Deriving it from live constants would mis-decode today's 25-column
/// artefacts as legacy the moment a sixth op grows the schema.
inline constexpr std::size_t kFirstTripleKernelWidth = 25;

/// One-hot categorical columns appended by the op-aware schema: one per
/// registered operation (blas/op.h) plus the kernel-variant block.
inline constexpr std::size_t kNumCategoricalFeatures =
    blas::kNumOps + kNumKernelFeatures;

/// Total width of the op-aware schema.
inline constexpr std::size_t kNumOpAwareFeatures =
    kNumFeatures + kNumCategoricalFeatures;

/// Width of the PR-2-era op-aware schema (gemm/syrk one-hots only) — the
/// narrowest op-aware tier; kept so the runtime can build width-matched
/// queries for old artefacts and recognise the op-aware floor.
inline constexpr std::size_t kNumLegacyOpAwareFeatures = 21;

/// Canonical base feature names, Group 1 then Group 2 (paper Table II).
const std::vector<std::string>& feature_names();

/// Canonical op-aware feature names: base schema + the four one-hot columns.
const std::vector<std::string>& op_aware_feature_names();

/// Index set of the Group 1 (serial) features, for the feature ablation.
std::vector<std::size_t> group1_indices();

/// Indices of the categorical one-hot columns in the op-aware schema
/// (17..20); feed these to PipelineConfig::categorical.
std::vector<std::size_t> categorical_indices();

/// Computes the 17 numeric features for one configuration.
std::array<double, kNumFeatures> make_features(double m, double k, double n,
                                               double n_threads);

/// True for the raw columns computed from n_threads (3 and 9..16, in every
/// schema tier); the rest of a query row is the same at every grid point.
bool is_thread_feature(std::size_t col);

/// Rewrites the thread columns of a raw row for `n_threads`, from its
/// serial columns 0..8 (make_features builds every row this way).
void set_thread_features(double n_threads, std::span<double> row);

/// Computes the full op-aware row: numeric features plus the op / kernel
/// one-hots. For non-GEMM operations pass the equivalent-GEMM shape (SYRK:
/// m == n; TRSM/SYMM: m == k). `variant` must be concrete (resolve kAuto via
/// blas::kernels::active_variant() first); kAuto leaves both kernel columns
/// zero.
std::array<double, kNumOpAwareFeatures> make_op_aware_features(
    double m, double k, double n, double n_threads, blas::OpKind op,
    blas::kernels::Variant variant);

/// Builds a query row matched to a fitted pipeline's input width (see the
/// backwards-compatibility table above): the current width gets the 3-wide
/// kernel block, legacy widths in [21, 25) get an op one-hot block of
/// pipeline_width - 19 columns (ops outside the block proxied as GEMM) plus
/// the 2-wide kernel pair (avx512 proxied as avx2), and anything narrower
/// gets the 17 numeric features. This is the single entry point the
/// prediction path uses, so a schema change is invisible to trainer /
/// runtime code.
std::vector<double> make_query_features(double m, double k, double n,
                                        double n_threads, blas::OpKind op,
                                        blas::kernels::Variant variant,
                                        std::size_t pipeline_width);

/// make_query_features without the allocation: writes the same row into
/// `out` and returns its width.
std::size_t fill_query_features(double m, double k, double n,
                                double n_threads, blas::OpKind op,
                                blas::kernels::Variant variant,
                                std::size_t pipeline_width,
                                std::span<double, kNumOpAwareFeatures> out);

/// True when a pipeline of this fitted input width serves `op` from its own
/// one-hot column; false when the query degrades to the GEMM proxy (the op
/// postdates the artefact, or the artefact predates the op-aware schema).
bool op_served_first_class(blas::OpKind op, std::size_t pipeline_width);

}  // namespace adsala::preprocess
